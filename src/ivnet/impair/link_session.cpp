#include "ivnet/impair/link_session.hpp"

#include "ivnet/sim/batch_pipeline.hpp"

namespace ivnet {

gen2::Bits default_link_epc() {
  gen2::Bits epc;
  gen2::append_bits(epc, 0xE2801160u, 32);
  gen2::append_bits(epc, 0x20000000u, 32);
  gen2::append_bits(epc, 0x00000001u, 32);
  return epc;
}

LinkSessionReport run_impaired_link_session(const ImpairedLinkConfig& config,
                                            Rng& rng) {
  const std::uint64_t base = rng();
  DspWorkspace workspace;
  LinkSessionReport report;
  run_session_lanes(config, 0, {&base, 1}, workspace, std::nullopt,
                    [&](std::size_t, LinkSessionReport& r) {
                      report = std::move(r);
                    });
  return report;
}

}  // namespace ivnet
