#include "recovery/wal.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <array>
#include <cerrno>
#include <cstring>

namespace muri::recovery {

namespace {

// Slicing-by-8 tables, built once on first use. Row 0 is the classic
// bytewise table; row k advances a byte's contribution k more bytes, so
// one step folds eight input bytes at once.
using CrcTables = std::array<std::array<std::uint32_t, 256>, 8>;

const CrcTables& crc_tables() {
  static const CrcTables tables = [] {
    CrcTables t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      }
      t[0][i] = c;
    }
    for (std::size_t k = 1; k < t.size(); ++k) {
      for (std::uint32_t i = 0; i < 256; ++i) {
        const std::uint32_t prev = t[k - 1][i];
        t[k][i] = (prev >> 8) ^ t[0][prev & 0xFF];
      }
    }
    return t;
  }();
  return tables;
}

void put_u32le(std::string& out, std::uint32_t v) {
  out += static_cast<char>(v & 0xFF);
  out += static_cast<char>((v >> 8) & 0xFF);
  out += static_cast<char>((v >> 16) & 0xFF);
  out += static_cast<char>((v >> 24) & 0xFF);
}

std::uint32_t get_u32le(const void* data) {
  const auto* b = static_cast<const unsigned char*>(data);
  return static_cast<std::uint32_t>(b[0]) |
         (static_cast<std::uint32_t>(b[1]) << 8) |
         (static_cast<std::uint32_t>(b[2]) << 16) |
         (static_cast<std::uint32_t>(b[3]) << 24);
}

// Reads `path` whole into `out`.
bool read_file_bytes(const std::string& path, std::string& out,
                     std::string* error, bool* missing = nullptr) {
  if (missing != nullptr) *missing = false;
  const auto fail = [&] {
    if (error != nullptr) {
      *error = "cannot read " + path + ": " + std::strerror(errno);
    }
    return false;
  };
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    if (missing != nullptr) *missing = errno == ENOENT;
    return fail();
  }
  struct stat st {};
  out.clear();
  if (::fstat(fd, &st) == 0 && st.st_size > 0) {
    out.reserve(static_cast<std::size_t>(st.st_size));
  }
  // Read to EOF rather than trusting st_size: a live WAL may still grow.
  char buf[1 << 16];
  while (true) {
    const ssize_t n = ::read(fd, buf, sizeof(buf));
    if (n == 0) break;
    if (n < 0) {
      if (errno == EINTR) continue;
      const int saved = errno;
      ::close(fd);
      errno = saved;
      return fail();
    }
    out.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);
  return true;
}

}  // namespace

std::uint32_t crc32_ieee(const void* data, std::size_t size,
                         std::uint32_t seed) {
  const CrcTables& t = crc_tables();
  std::uint32_t c = seed ^ 0xFFFFFFFFu;
  const auto* p = static_cast<const unsigned char*>(data);
  for (; size >= 8; p += 8, size -= 8) {
    const std::uint32_t lo = get_u32le(p) ^ c;
    const std::uint32_t hi = get_u32le(p + 4);
    c = t[7][lo & 0xFF] ^ t[6][(lo >> 8) & 0xFF] ^ t[5][(lo >> 16) & 0xFF] ^
        t[4][lo >> 24] ^ t[3][hi & 0xFF] ^ t[2][(hi >> 8) & 0xFF] ^
        t[1][(hi >> 16) & 0xFF] ^ t[0][hi >> 24];
  }
  for (; size > 0; ++p, --size) {
    c = t[0][(c ^ *p) & 0xFF] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

void append_wal_frame(std::string& out, FrameKind kind,
                      std::string_view payload) {
  out.append(kWalMagic, sizeof(kWalMagic));
  out += static_cast<char>(kind);
  put_u32le(out, static_cast<std::uint32_t>(payload.size()));
  put_u32le(out, crc32_ieee(payload.data(), payload.size()));
  out.append(payload.data(), payload.size());
}

bool looks_like_wal(std::string_view bytes) {
  return bytes.size() >= sizeof(kWalMagic) &&
         std::memcmp(bytes.data(), kWalMagic, sizeof(kWalMagic)) == 0;
}

WalImage scan_wal(std::string bytes) {
  // Checks magic, kind, length and CRC of each frame and stops at the
  // first that fails.
  WalImage image;
  image.bytes = std::move(bytes);
  const std::string_view data = image.bytes;
  std::size_t pos = 0;
  const auto stop = [&](const std::string& why) {
    image.torn = true;
    image.torn_reason = why + " at byte offset " + std::to_string(pos);
  };
  while (pos < data.size()) {
    if (data.size() - pos < kWalHeaderSize) {
      stop("incomplete frame header");
      break;
    }
    if (std::memcmp(data.data() + pos, kWalMagic, sizeof(kWalMagic)) != 0) {
      stop("bad frame magic");
      break;
    }
    const auto kind_byte =
        static_cast<unsigned char>(data[pos + sizeof(kWalMagic)]);
    if (kind_byte != static_cast<unsigned char>(FrameKind::kRecord) &&
        kind_byte != static_cast<unsigned char>(FrameKind::kSnapshot)) {
      stop("unknown frame kind " + std::to_string(kind_byte));
      break;
    }
    const std::uint32_t len = get_u32le(data.data() + pos + 5);
    const std::uint32_t crc = get_u32le(data.data() + pos + 9);
    if (data.size() - pos - kWalHeaderSize < len) {
      stop("incomplete frame payload (" + std::to_string(len) + " bytes)");
      break;
    }
    if (crc32_ieee(data.data() + pos + kWalHeaderSize, len) != crc) {
      stop("checksum mismatch");
      break;
    }
    image.frames.push_back(
        {static_cast<FrameKind>(kind_byte), pos + kWalHeaderSize, len});
    pos += kWalHeaderSize + len;
  }
  image.valid_bytes = pos;
  return image;
}

bool read_wal_image(const std::string& path, WalImage& out,
                    std::string* error, bool* missing) {
  std::string bytes;
  if (!read_file_bytes(path, bytes, error, missing)) return false;
  out = scan_wal(std::move(bytes));
  return true;
}

bool truncate_wal_file(const std::string& path, std::size_t valid_bytes,
                       std::string* error) {
  if (::truncate(path.c_str(), static_cast<off_t>(valid_bytes)) != 0) {
    if (error != nullptr) {
      *error = "cannot truncate " + path + ": " + std::strerror(errno);
    }
    return false;
  }
  return true;
}

}  // namespace muri::recovery
