// Write-ahead-log framing for the durable DecisionLog (DESIGN.md
// "Durability and recovery").
//
// A WAL file is a sequence of self-checking frames:
//
//   offset 0:  'M' 'W' 'A' 'L'      magic (4 bytes)
//   offset 4:  kind                 u8: 1 = record, 2 = snapshot
//   offset 5:  payload length       u32 little-endian
//   offset 9:  CRC-32 (IEEE)        u32 little-endian, over the payload
//   offset 13: payload              `length` bytes
//
// Record payloads are single DecisionLog JSONL lines (no trailing
// newline); snapshot payloads are ReplayState JSON (replay.h). The
// format is append-only and self-delimiting: a reader scans frames until
// the first one that is incomplete or fails its checksum — the signature
// of an append cut short by a crash — and reports the byte offset where
// the valid prefix ends, so recovery can truncate the torn tail and
// resume appending from a clean boundary.
//
// A file whose *first* frame is a snapshot has been compacted: the
// records the snapshot summarizes were dropped, and the first record
// frame after it carries ordinal snapshot.records + 1.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace muri::recovery {

// CRC-32 (IEEE 802.3, polynomial 0xEDB88320), the checksum gzip and
// Ethernet use. `seed` chains incremental computations. Slicing-by-8:
// eight table lookups per 8-byte step instead of one per byte.
std::uint32_t crc32_ieee(const void* data, std::size_t size,
                         std::uint32_t seed = 0);

enum class FrameKind : std::uint8_t { kRecord = 1, kSnapshot = 2 };

inline constexpr std::size_t kWalHeaderSize = 13;
inline constexpr char kWalMagic[4] = {'M', 'W', 'A', 'L'};

// Serializes one frame onto `out`.
void append_wal_frame(std::string& out, FrameKind kind,
                      std::string_view payload);

// A WAL read into memory and scanned once: the bytes plus the index of
// its valid frame prefix. Payloads are views into `bytes`, so recovery
// checksums and frames the file without copying a payload.
struct WalImage {
  struct Frame {
    FrameKind kind = FrameKind::kRecord;
    std::size_t offset = 0;  // payload start within `bytes`
    std::size_t size = 0;    // payload length
  };

  std::string bytes;
  std::vector<Frame> frames;
  // Byte offset where the valid frame prefix ends (== bytes.size() for a
  // clean file).
  std::size_t valid_bytes = 0;
  // True when trailing bytes past valid_bytes had to be ignored.
  bool torn = false;
  std::string torn_reason;  // empty unless torn

  std::string_view payload(const Frame& frame) const {
    return std::string_view(bytes).substr(frame.offset, frame.size);
  }
};

// Scans `bytes` (taking ownership) into an image. Never fails: a torn or
// corrupt tail just stops the scan and is reported in the result.
WalImage scan_wal(std::string bytes);

// True when `bytes` opens with the WAL magic (muri-report uses this to
// tell a WAL from a plain JSONL dump).
bool looks_like_wal(std::string_view bytes);

// Reads and scans `path`. False (with `error`) only on I/O failure; torn
// tails are reported through the image, not as errors. `missing`
// (optional) tells a file that does not exist apart from one that
// cannot be read.
bool read_wal_image(const std::string& path, WalImage& out,
                    std::string* error = nullptr, bool* missing = nullptr);

// Cuts `path` back to its first `valid_bytes` bytes (the valid_bytes a
// scan reported) with one truncate(); the prefix is left untouched.
// False (with `error`) on I/O failure.
bool truncate_wal_file(const std::string& path, std::size_t valid_bytes,
                       std::string* error = nullptr);

}  // namespace muri::recovery
