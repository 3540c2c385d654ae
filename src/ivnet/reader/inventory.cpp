#include "ivnet/reader/inventory.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

#include "ivnet/obs/obs.hpp"

namespace ivnet {

InventoryConfig InventoryConfig::normalized() const {
  InventoryConfig n = *this;
  n.q = std::min<std::uint8_t>(q, 15);
  if (std::isnan(n.capture_probability)) n.capture_probability = 0.0;
  n.capture_probability = std::clamp(n.capture_probability, 0.0, 1.0);
  return n;
}

namespace {

/// A Gen2 Query carries Q in 4 bits, and a frame of 2^Q slots must stay
/// shiftable: reject bounds outside 0 <= q_min <= q_max <= 15 up front.
const AdaptiveQConfig& checked(const AdaptiveQConfig& config) {
  if (config.q_max > 15 || config.q_min > config.q_max) {
    throw std::invalid_argument(
        "AdaptiveQ: need q_min <= q_max <= 15, got q_min " +
        std::to_string(config.q_min) + ", q_max " +
        std::to_string(config.q_max));
  }
  return config;
}

}  // namespace

AdaptiveQ::AdaptiveQ(AdaptiveQConfig config)
    : config_(checked(config)),
      qfp_(std::clamp(config.initial_q, static_cast<double>(config.q_min),
                      static_cast<double>(config.q_max))) {}

void AdaptiveQ::on_collision() {
  qfp_ = std::min(qfp_ + config_.step, static_cast<double>(config_.q_max));
}

void AdaptiveQ::on_empty() {
  qfp_ = std::max(qfp_ - config_.step, static_cast<double>(config_.q_min));
}

std::uint8_t AdaptiveQ::q() const {
  return static_cast<std::uint8_t>(std::lround(qfp_));
}

InventoryRound::InventoryRound(InventoryConfig config)
    : config_(config.normalized()) {}

gen2::Bits InventoryRound::extract_epc(const gen2::Bits& frame) {
  if (frame.size() < 32 || !gen2::check_crc16(frame)) return {};
  return gen2::Bits(frame.begin() + 16, frame.end() - 16);
}

InventoryResult InventoryRound::run(std::span<gen2::TagStateMachine*> tags,
                                    Rng& rng) const {
  return run_with_q(tags, config_.q, rng);
}

InventoryResult InventoryRound::run_with_q(
    std::span<gen2::TagStateMachine*> tags, std::uint8_t q, Rng& rng) const {
  InventoryResult result;
  result.q_trajectory.push_back(q);
  obs::count("inventory.rounds");
  obs::observe("inventory.q_issued", static_cast<double>(q));

  if (config_.use_select) {
    gen2::SelectCommand select;
    select.pointer = config_.select_pointer;
    select.mask = config_.select_mask;
    const auto bits = select.encode();
    for (auto* tag : tags) tag->on_command(bits);
  }

  gen2::QueryCommand query;
  query.q = q;
  query.session = config_.session;
  query.sel = config_.use_select ? 3 : 0;  // SL asserted when addressing

  // Collect the replies of the first slot (Query), then iterate QueryRep.
  std::vector<std::pair<gen2::TagStateMachine*, gen2::Bits>> replies;
  auto broadcast = [&](const gen2::Bits& command) {
    replies.clear();
    for (auto* tag : tags) {
      if (auto reply = tag->on_command(command)) {
        replies.emplace_back(tag, *reply);
      }
    }
  };

  broadcast(query.encode());
  // max_slots == 0 means "derive from Q": the whole 2^q frame plus one slot
  // of collision slack per tag.
  const std::size_t derived = (std::size_t{1} << q) + tags.size();
  const std::size_t total_slots =
      config_.max_slots == 0 ? derived : std::min(config_.max_slots, derived);
  for (std::size_t slot = 0; slot < total_slots; ++slot) {
    if (replies.empty()) {
      ++result.empty_slots;
      result.slot_outcomes.push_back(SlotOutcome::kEmpty);
      obs::count("inventory.slots.empty");
    } else {
      gen2::TagStateMachine* winner = nullptr;
      if (replies.size() == 1) {
        winner = replies.front().first;
        result.slot_outcomes.push_back(SlotOutcome::kSingle);
        obs::count("inventory.slots.single");
      } else {
        ++result.collisions;
        result.slot_outcomes.push_back(SlotOutcome::kCollision);
        obs::count("inventory.slots.collision");
        if (rng.uniform() < config_.capture_probability) {
          // Capture effect: one (random) reply survives the collision.
          winner = replies[static_cast<std::size_t>(rng.uniform_int(
                               0, static_cast<std::int64_t>(replies.size()) -
                                      1))]
                       .first;
        }
      }
      if (winner != nullptr) {
        gen2::AckCommand ack;
        ack.rn16 = winner->last_rn16();
        // The ACK is broadcast; only the matching tag answers with its EPC.
        for (auto* tag : tags) {
          if (auto epc_frame = tag->on_command(ack.encode())) {
            const auto epc = extract_epc(*epc_frame);
            if (epc.empty()) {
              ++result.crc_failures;
              obs::count("inventory.crc_failures");
            } else {
              result.epcs.push_back(epc);
            }
          }
        }
      }
    }
    ++result.slots_used;
    broadcast(gen2::QueryRepCommand{.session = config_.session}.encode());
  }
  return result;
}

namespace {

/// Fold one round's tallies into the running total (EPC union).
void accumulate_round(InventoryResult& total, const InventoryResult& round) {
  total.slots_used += round.slots_used;
  total.collisions += round.collisions;
  total.empty_slots += round.empty_slots;
  total.crc_failures += round.crc_failures;
  total.slot_outcomes.insert(total.slot_outcomes.end(),
                             round.slot_outcomes.begin(),
                             round.slot_outcomes.end());
  total.q_trajectory.insert(total.q_trajectory.end(),
                            round.q_trajectory.begin(),
                            round.q_trajectory.end());
  for (const auto& epc : round.epcs) {
    if (std::find(total.epcs.begin(), total.epcs.end(), epc) ==
        total.epcs.end()) {
      total.epcs.push_back(epc);
    }
  }
}

}  // namespace

InventoryResult InventoryRound::run_until_complete(
    std::span<gen2::TagStateMachine*> tags, std::size_t max_rounds,
    Rng& rng) const {
  InventoryResult total;
  for (std::size_t round = 0; round < max_rounds; ++round) {
    accumulate_round(total, run(tags, rng));
    if (total.epcs.size() >= tags.size()) break;
  }
  return total;
}

InventoryResult InventoryRound::run_adaptive(
    std::span<gen2::TagStateMachine*> tags, std::size_t max_rounds, Rng& rng,
    AdaptiveQConfig adapt) const {
  adapt.initial_q = static_cast<double>(config_.q);
  AdaptiveQ controller(adapt);
  InventoryResult total;
  for (std::size_t round = 0; round < max_rounds; ++round) {
    const auto q_used = controller.q();
    const auto r = run_with_q(tags, q_used, rng);
    // Feed the slot outcomes to the Q-algorithm in slot order, and stop as
    // soon as the issued Q changes: a real reader would have sent
    // QueryAdjust there and restarted the frame, so the remaining slots of
    // this round never inform Qfp. (Without this cutoff, the dead empty
    // slots that trail a collision-heavy frame — collided tags stay muted
    // until the next Query — drive Qfp to 0 and starve dense populations.)
    for (const auto outcome : r.slot_outcomes) {
      if (outcome == SlotOutcome::kCollision) {
        controller.on_collision();
      } else if (outcome == SlotOutcome::kEmpty) {
        controller.on_empty();
      } else {
        controller.on_single();
      }
      if (controller.q() != q_used) {
        obs::count("inventory.q_adjust");
        break;
      }
    }
    accumulate_round(total, r);
    if (total.epcs.size() >= tags.size()) break;
  }
  return total;
}

}  // namespace ivnet
