#pragma once

#include <cstdint>
#include <cstring>
#include <span>

#include "ppds/common/bytes.hpp"
#include "ppds/common/rng.hpp"

/// \file framing.hpp
/// Lightweight per-message wire frame for the simulated transport.
///
/// Every message an Endpoint sends is wrapped in a FrameHeader carrying a
/// session id, a per-direction monotone sequence number, a protocol stage
/// tag and a 64-bit payload checksum. The receiving endpoint validates all
/// four on every recv(), so the failure modes a real network exhibits —
/// replayed, reordered, dropped, truncated or bit-flipped messages, and
/// messages leaking across sessions — abort DETERMINISTICALLY with a typed
/// ProtocolError naming what was expected and what arrived, instead of
/// desynchronizing the protocol state machines into garbage math.
///
/// The header never touches the payload bytes: protocol transcripts (which
/// several tests pin bit-identical across performance knobs) are unchanged,
/// and TrafficStats keeps counting payload bytes only (header bytes are
/// tracked separately as overhead).

namespace ppds::net {

/// Protocol stage a frame belongs to. Both parties advance their endpoint's
/// stage SYMMETRICALLY at the same protocol points (Endpoint::set_stage), so
/// a frame from an earlier stage arriving late — or a confused peer skipping
/// a stage — is caught by name on receipt.
enum class Stage : std::uint8_t {
  kNone = 0,         ///< no stage discipline (raw channels, unit tests)
  kHandshake = 1,    ///< session hello / ack
  kOtSetup = 2,      ///< batched OT precompute (announce / blinded keys)
  kNorms = 3,        ///< similarity step 0: Bob's vector moduli
  kOmpeRequest = 4,  ///< the receiver's disguised (node, z) bundle
  kOtTransfer = 5,   ///< the m-out-of-M OT of masked evaluations
  /// Out-of-band control frames (net/control.hpp): validated for version
  /// and checksum only, NEVER against the session's seq/stage/session-id
  /// state — a daemon shedding load answers connections it will not serve,
  /// at whatever protocol point the client happens to be waiting.
  kControl = 6,
};

/// Human-readable stage name for ProtocolError diagnostics.
inline const char* stage_name(Stage stage) {
  switch (stage) {
    case Stage::kNone: return "none";
    case Stage::kHandshake: return "handshake";
    case Stage::kOtSetup: return "ot-setup";
    case Stage::kNorms: return "norms";
    case Stage::kOmpeRequest: return "ompe-request";
    case Stage::kOtTransfer: return "ot-transfer";
    case Stage::kControl: return "control";
  }
  return "unknown";
}

/// Wire-frame version; bumped when the header layout changes.
inline constexpr std::uint8_t kFrameVersion = 1;

/// Per-message header. Stamped by Endpoint::send, validated by
/// Endpoint::recv; payload bytes are carried alongside, never prefixed into
/// the payload buffer (prepending would memmove multi-megabyte requests).
struct FrameHeader {
  std::uint8_t version = kFrameVersion;
  Stage stage = Stage::kNone;
  std::uint32_t seq = 0;         ///< per-direction monotone counter
  std::uint64_t session_id = 0;  ///< 0 until a session is established
  std::uint64_t checksum = 0;    ///< frame_checksum over header + payload
};

namespace detail_framing {

/// One lane step: xor-rotate-multiply. Bijective in `lane` for any fixed
/// `word` (and vice versa), so a flipped payload bit always changes its
/// lane's final value.
inline std::uint64_t mix_lane(std::uint64_t lane, std::uint64_t word) {
  lane ^= word;
  lane = (lane << 23) | (lane >> 41);
  return lane * 0x9e3779b97f4a7c15ULL;
}

}  // namespace detail_framing

/// 64-bit integrity checksum over the header fields and the payload. The
/// payload is folded through EIGHT independent xor-rotate-multiply lanes so
/// the multiplies pipeline instead of forming one serial dependency chain —
/// a frame is checksummed twice (send + validate) and OMPE payloads run to
/// tens of MB, so the serial SplitMix64 variant showed up as whole
/// milliseconds per round in micro_ompe. Not cryptographic: it detects
/// faults; tampering is the protocol layer's threat model. Covers
/// version/stage/seq/session/length, so header corruption and truncation
/// are caught too.
/// (noinline: when GCC 12 inlines the word loop into a caller with a small
/// compile-time-known payload, its -Warray-bounds pass flags the guarded
/// 8-byte loads as out-of-bounds — a false positive cousin of PR 105329.
/// One call per message, so the call cost is noise.)
#if defined(__GNUC__) && !defined(__clang__)
__attribute__((noinline))
#endif
inline std::uint64_t
frame_checksum(const FrameHeader& header,
               std::span<const std::uint8_t> payload) {
  const std::uint64_t acc = splitmix64(
      splitmix64(0x70706473u,  // "ppds"
                 (static_cast<std::uint64_t>(header.version) << 48) ^
                     (static_cast<std::uint64_t>(header.stage) << 40) ^
                     header.seq),
      header.session_id);
  std::uint64_t lanes[8] = {acc ^ 1, acc ^ 2, acc ^ 3, acc ^ 4,
                            acc ^ 5, acc ^ 6, acc ^ 7, acc ^ 8};
  const std::uint8_t* p = payload.data();
  std::size_t i = 0;
  for (; i + 64 <= payload.size(); i += 64) {
    for (std::size_t l = 0; l < 8; ++l) {
      lanes[l] = detail_framing::mix_lane(lanes[l], load_le64(p + i + 8 * l));
    }
  }
  std::size_t lane = 0;
  for (; i + 8 <= payload.size(); i += 8, ++lane) {
    lanes[lane] = detail_framing::mix_lane(lanes[lane], load_le64(p + i));
  }
  if (i < payload.size()) {
    std::uint64_t tail = 0;
    std::memcpy(&tail, p + i, payload.size() - i);
    lanes[7] = detail_framing::mix_lane(lanes[7], tail);
  }
  std::uint64_t out = splitmix64(acc, payload.size());
  for (std::uint64_t l : lanes) out = splitmix64(out, l);
  return out;
}

/// Serialized header size (the simulated wire overhead per message).
inline constexpr std::size_t kFrameHeaderBytes = 1 + 1 + 4 + 8 + 8;

/// Little-endian wire layout of a FrameHeader (the socket transport's
/// on-the-wire form; the in-process channel passes the struct directly):
///   u8 version | u8 stage | u32 seq | u64 session_id | u64 checksum
inline void store_frame_header(std::uint8_t* out, const FrameHeader& h) {
  out[0] = h.version;
  out[1] = static_cast<std::uint8_t>(h.stage);
  for (int i = 0; i < 4; ++i) {
    out[2 + i] = static_cast<std::uint8_t>(h.seq >> (8 * i));
  }
  store_le64(out + 6, h.session_id);
  store_le64(out + 14, h.checksum);
}

inline FrameHeader load_frame_header(const std::uint8_t* in) {
  FrameHeader h;
  h.version = in[0];
  h.stage = static_cast<Stage>(in[1]);
  h.seq = 0;
  for (int i = 0; i < 4; ++i) {
    h.seq |= static_cast<std::uint32_t>(in[2 + i]) << (8 * i);
  }
  h.session_id = load_le64(in + 6);
  h.checksum = load_le64(in + 14);
  return h;
}

}  // namespace ppds::net
