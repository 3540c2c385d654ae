#include "ivnet/gen2/commands.hpp"

#include <stdexcept>

namespace ivnet::gen2 {

Bits QueryCommand::encode() const {
  if (q > 15) throw std::invalid_argument("QueryCommand: q must be <= 15");
  Bits bits;
  append_bits(bits, 0b1000, 4);
  append_bits(bits, static_cast<std::uint32_t>(dr), 1);
  append_bits(bits, static_cast<std::uint32_t>(m), 2);
  append_bits(bits, trext ? 1 : 0, 1);
  append_bits(bits, sel, 2);
  append_bits(bits, static_cast<std::uint32_t>(session), 2);
  append_bits(bits, target_b ? 1 : 0, 1);
  append_bits(bits, q, 4);
  append_bits(bits, crc5(bits), 5);
  return bits;
}

std::optional<QueryCommand> QueryCommand::parse(const Bits& bits) {
  if (bits.size() != 22 || read_bits(bits, 0, 4) != 0b1000) return std::nullopt;
  if (!check_crc5(bits)) return std::nullopt;
  QueryCommand cmd;
  cmd.dr = static_cast<DivideRatio>(read_bits(bits, 4, 1));
  cmd.m = static_cast<Miller>(read_bits(bits, 5, 2));
  cmd.trext = read_bits(bits, 7, 1) != 0;
  cmd.sel = static_cast<std::uint8_t>(read_bits(bits, 8, 2));
  cmd.session = static_cast<Session>(read_bits(bits, 10, 2));
  cmd.target_b = read_bits(bits, 12, 1) != 0;
  cmd.q = static_cast<std::uint8_t>(read_bits(bits, 13, 4));
  return cmd;
}

Bits QueryRepCommand::encode() const {
  Bits bits;
  append_bits(bits, 0b00, 2);
  append_bits(bits, static_cast<std::uint32_t>(session), 2);
  return bits;
}

std::optional<QueryRepCommand> QueryRepCommand::parse(const Bits& bits) {
  if (bits.size() != 4 || read_bits(bits, 0, 2) != 0b00) return std::nullopt;
  QueryRepCommand cmd;
  cmd.session = static_cast<Session>(read_bits(bits, 2, 2));
  return cmd;
}

Bits AckCommand::encode() const {
  Bits bits;
  append_bits(bits, 0b01, 2);
  append_bits(bits, rn16, 16);
  return bits;
}

std::optional<AckCommand> AckCommand::parse(const Bits& bits) {
  if (bits.size() != 18 || read_bits(bits, 0, 2) != 0b01) return std::nullopt;
  AckCommand cmd;
  cmd.rn16 = static_cast<std::uint16_t>(read_bits(bits, 2, 16));
  return cmd;
}

Bits SelectCommand::encode() const {
  Bits bits;
  append_bits(bits, 0b1010, 4);
  append_bits(bits, target, 3);
  append_bits(bits, action, 3);
  append_bits(bits, membank, 2);
  append_bits(bits, pointer, 8);
  append_bits(bits, static_cast<std::uint32_t>(mask.size()), 8);
  bits.insert(bits.end(), mask.begin(), mask.end());
  bits.push_back(truncate);
  append_bits(bits, crc16(bits), 16);
  return bits;
}

std::optional<SelectCommand> SelectCommand::parse(const Bits& bits) {
  if (bits.size() < 4 + 3 + 3 + 2 + 8 + 8 + 1 + 16) return std::nullopt;
  if (read_bits(bits, 0, 4) != 0b1010) return std::nullopt;
  if (!check_crc16(bits)) return std::nullopt;
  SelectCommand cmd;
  cmd.target = static_cast<std::uint8_t>(read_bits(bits, 4, 3));
  cmd.action = static_cast<std::uint8_t>(read_bits(bits, 7, 3));
  cmd.membank = static_cast<std::uint8_t>(read_bits(bits, 10, 2));
  cmd.pointer = static_cast<std::uint8_t>(read_bits(bits, 12, 8));
  const auto mask_len = read_bits(bits, 20, 8);
  if (bits.size() != 4 + 3 + 3 + 2 + 8 + 8 + mask_len + 1 + 16) {
    return std::nullopt;
  }
  cmd.mask.assign(bits.begin() + 28,
                  bits.begin() + 28 + static_cast<std::ptrdiff_t>(mask_len));
  cmd.truncate = bits[28 + mask_len];
  return cmd;
}

CommandKind classify(const Bits& bits) {
  if (bits.size() >= 4 && read_bits(bits, 0, 4) == 0b1000) {
    return CommandKind::kQuery;
  }
  if (bits.size() >= 4 && read_bits(bits, 0, 4) == 0b1010) {
    return CommandKind::kSelect;
  }
  if (bits.size() >= 2 && read_bits(bits, 0, 2) == 0b01) {
    return CommandKind::kAck;
  }
  if (bits.size() >= 2 && read_bits(bits, 0, 2) == 0b00) {
    return CommandKind::kQueryRep;
  }
  return CommandKind::kUnknown;
}

}  // namespace ivnet::gen2
