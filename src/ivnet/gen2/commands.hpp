// EPC Gen2 reader commands at the bit level: Select, Query, QueryRep, ACK.
//
// IVN transmits these synchronously from every CIB antenna (Sec. 3.2:
// "the commands transmitted from all the antennas are the same ... at the
// exact same time"). Sec. 3.7 notes Select can address one of several
// implanted sensors; its length feeds the delta-t of the flatness constraint.
#pragma once

#include <cstdint>
#include <optional>

#include "ivnet/gen2/crc.hpp"
#include "ivnet/gen2/pie.hpp"

namespace ivnet::gen2 {

/// Divide ratio field of Query.
enum class DivideRatio : std::uint8_t { kDr8 = 0, kDr64_3 = 1 };

/// Uplink modulation (we use FM0 = 0 throughout, as the paper does).
enum class Miller : std::uint8_t { kFm0 = 0, kM2 = 1, kM4 = 2, kM8 = 3 };

/// Session flag targeted by inventory rounds.
enum class Session : std::uint8_t { kS0 = 0, kS1 = 1, kS2 = 2, kS3 = 3 };

struct QueryCommand {
  DivideRatio dr = DivideRatio::kDr8;
  Miller m = Miller::kFm0;
  bool trext = false;        ///< pilot tone request
  std::uint8_t sel = 0;      ///< which tags respond (00=all)
  Session session = Session::kS0;
  bool target_b = false;     ///< inventoried flag target (A=false)
  std::uint8_t q = 0;        ///< slot-count exponent, 0..15

  /// 22 bits: '1000' + fields + CRC-5. Throws std::invalid_argument for
  /// q > 15 (the field is 4 bits wide).
  Bits encode() const;
  static std::optional<QueryCommand> parse(const Bits& bits);
};

struct QueryRepCommand {
  Session session = Session::kS0;
  /// 4 bits: '00' + session.
  Bits encode() const;
  static std::optional<QueryRepCommand> parse(const Bits& bits);
};

struct AckCommand {
  std::uint16_t rn16 = 0;
  /// 18 bits: '01' + RN16.
  Bits encode() const;
  static std::optional<AckCommand> parse(const Bits& bits);
};

struct SelectCommand {
  std::uint8_t target = 4;   ///< 3 bits; 4 = SL flag
  std::uint8_t action = 0;   ///< 3 bits
  std::uint8_t membank = 1;  ///< 2 bits; 1 = EPC
  std::uint8_t pointer = 0x20;  ///< bit address (8-bit EBV body)
  Bits mask;                 ///< up to 255 bits
  bool truncate = false;

  /// '1010' + fields + mask + CRC-16.
  Bits encode() const;
  static std::optional<SelectCommand> parse(const Bits& bits);
};

/// Which command a bit vector starts with, by prefix.
enum class CommandKind { kQuery, kQueryRep, kAck, kSelect, kUnknown };
CommandKind classify(const Bits& bits);

}  // namespace ivnet::gen2
