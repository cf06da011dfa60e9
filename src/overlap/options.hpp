// Configuration of the overlap transformation (the paper's §II mechanisms).
#pragma once

#include <cstdint>

namespace osim::overlap {

enum class PatternMode : std::uint8_t {
  /// Use the measured production/consumption annotations (the paper's
  /// first overlapped trace: "identifies within the original computation
  /// bursts the points where partial data can be sent / is needed").
  kMeasured,
  /// Assume ideal patterns (the paper's second overlapped trace: "models
  /// ideal computation pattern by uniformly distributing the chunked
  /// transmissions/receptions throughout the original computation bursts").
  kIdeal,
};

/// Most chunks one message can be split into: the chunk index occupies the
/// low byte of a chunk tag (pairing.hpp).
inline constexpr int kMaxChunks = 256;

struct OverlapOptions {
  /// Number of chunks per message ("the chunking technique in the
  /// overlapped case splits every MPI message in four chunks", §IV).
  /// Messages with fewer elements than chunks get one chunk per element.
  /// In [1, kMaxChunks].
  int chunks = 4;

  /// Auto-chunking: when > 0, the chunk count is derived per message so
  /// that each chunk is at most this many bytes (e.g. the platform's eager
  /// threshold, so every chunk can use the eager protocol), overriding
  /// `chunks`. Capped at kMaxChunks chunks per message.
  std::uint64_t auto_chunk_bytes = 0;

  PatternMode pattern = PatternMode::kMeasured;

  // --- mechanism toggles (for ablation; all on = the paper's technique) ---
  /// Advancing sends: emit each chunk at its last-update instant instead of
  /// at the original send call.
  bool advance_sends = true;
  /// Post-postponing receptions: wait for each chunk at its first-use
  /// instant instead of at the original receive call.
  bool postpone_receptions = true;
  /// Message chunking: when false, the whole message is treated as a single
  /// chunk (still advanced/postponed as a unit).
  bool chunking = true;
  /// Double buffering: when false, chunk transfers are forced synchronous
  /// (rendezvous) — an early-sent chunk cannot land at the receiver until
  /// the matching receive is posted, modelling the absence of a second
  /// buffer to land into.
  bool double_buffering = true;

  int effective_chunks(std::uint64_t num_elements,
                       std::uint64_t message_bytes) const {
    if (!chunking) return 1;
    std::uint64_t c = static_cast<std::uint64_t>(chunks);
    if (auto_chunk_bytes > 0) {
      c = (message_bytes + auto_chunk_bytes - 1) / auto_chunk_bytes;
      if (c < 1) c = 1;
      if (c > kMaxChunks) c = kMaxChunks;
    }
    return static_cast<int>(c < num_elements ? c : num_elements);
  }
};

}  // namespace osim::overlap
