#include "tcr/guard/journal.hpp"

#include <array>
#include <cerrno>
#include <cstring>
#include <fstream>
#include <sstream>

#if defined(__unix__) || defined(__APPLE__)
#include <fcntl.h>
#include <unistd.h>
#endif

namespace tcr::guard {

namespace {

std::uint32_t load_u32le(const unsigned char* p) {
  return static_cast<std::uint32_t>(p[0]) | (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) |
         (static_cast<std::uint32_t>(p[3]) << 24);
}

void store_u32le(std::uint32_t v, unsigned char* p) {
  p[0] = static_cast<unsigned char>(v & 0xff);
  p[1] = static_cast<unsigned char>((v >> 8) & 0xff);
  p[2] = static_cast<unsigned char>((v >> 16) & 0xff);
  p[3] = static_cast<unsigned char>((v >> 24) & 0xff);
}

struct Scan {
  JournalContents contents;
  std::size_t valid_bytes = 0;  // length of the longest valid prefix
};

// Shared by the reader and the writer's open-time validation.
Scan scan_journal(const std::string& path) {
  Scan scan;
  JournalContents& out = scan.contents;
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    out.error = "cannot open journal '" + path + "'";
    return scan;
  }
  std::string data((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  if (in.bad()) {
    out.error = "I/O error reading journal '" + path + "'";
    return scan;
  }
  if (!has_journal_magic(data)) {
    out.error = "'" + path + "' is not a tcr journal (bad magic at offset 0)";
    return scan;
  }
  const FrameScan frames =
      scan_frames(std::string_view(data).substr(kJournalMagicSize), kJournalMagicSize, 0);
  if (!frames.error.empty()) {
    out.error = "journal '" + path + "': " + frames.error;
    return scan;
  }
  for (const std::string_view payload : frames.payloads) out.records.emplace_back(payload);
  scan.valid_bytes = kJournalMagicSize + frames.end;
  out.truncated_tail = scan.valid_bytes < data.size();
  out.ok = true;
  return scan;
}

}  // namespace

std::uint32_t crc32(const void* data, std::size_t size) noexcept {
  static const std::array<std::uint32_t, 256> table = [] {
    std::array<std::uint32_t, 256> t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k) c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      t[i] = c;
    }
    return t;
  }();
  std::uint32_t c = 0xFFFFFFFFu;
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < size; ++i) c = table[(c ^ p[i]) & 0xFFu] ^ (c >> 8);
  return c ^ 0xFFFFFFFFu;
}

bool has_journal_magic(std::string_view bytes) noexcept {
  return bytes.size() >= kJournalMagicSize &&
         std::memcmp(bytes.data(), kJournalMagic, kJournalMagicSize) == 0;
}

FrameScan scan_frames(std::string_view bytes, std::uint64_t file_offset,
                      std::size_t first_record) {
  FrameScan scan;
  std::size_t pos = 0;
  const auto at = [&] {
    return " at offset " + std::to_string(file_offset + pos) + " (record " +
           std::to_string(first_record + scan.payloads.size()) + ")";
  };
  while (bytes.size() - pos >= kJournalHeaderSize) {
    const auto* header = reinterpret_cast<const unsigned char*>(bytes.data() + pos);
    const std::uint32_t len = load_u32le(header);
    const std::uint32_t crc = load_u32le(header + 4);
    if (len > kJournalMaxRecordSize) {
      scan.error = "implausible record length " + std::to_string(len) + at();
      break;
    }
    if (bytes.size() - pos - kJournalHeaderSize < len) break;  // torn payload => tail
    const std::string_view payload = bytes.substr(pos + kJournalHeaderSize, len);
    if (crc32(payload.data(), len) != crc) {
      // A CRC mismatch on the final frame is a torn write (a kill landed
      // mid-payload after the length happened to be fully written);
      // anywhere else it means the middle of the file changed under us.
      if (pos + kJournalHeaderSize + len == bytes.size()) break;
      scan.error = "CRC mismatch" + at();
      break;
    }
    scan.payloads.push_back(payload);
    pos += kJournalHeaderSize + len;
  }
  scan.end = pos;
  return scan;
}

JournalContents read_journal(const std::string& path) {
  return scan_journal(path).contents;
}

bool JournalWriter::open(const std::string& path, std::string* error) {
#if defined(__unix__) || defined(__APPLE__)
  std::lock_guard<std::mutex> lock(mu_);
  if (fd_ >= 0) { ::close(fd_); fd_ = -1; }
  failed_ = false;
  path_ = path;

  // Does a journal already exist? Validate it and drop any torn tail so the
  // next append starts at the last durable record.
  bool fresh = false;
  std::size_t valid_bytes = 0;
  {
    std::ifstream probe(path, std::ios::binary);
    fresh = !probe.good() || probe.peek() == std::ifstream::traits_type::eof();
  }
  if (!fresh) {
    Scan scan = scan_journal(path);
    if (!scan.contents.ok) {
      if (error) *error = scan.contents.error;
      return false;
    }
    valid_bytes = scan.valid_bytes;
  }

  fd_ = ::open(path.c_str(), O_RDWR | O_CREAT, 0644);
  if (fd_ < 0) {
    if (error) *error = "cannot open journal '" + path + "': " + std::strerror(errno);
    return false;
  }
  bool init_ok;
  std::string what;
  if (fresh) {
    init_ok = ::write(fd_, kJournalMagic, kJournalMagicSize) ==
                  static_cast<ssize_t>(kJournalMagicSize) &&
              ::fsync(fd_) == 0;
    what = "initialize";
  } else {
    init_ok = ::ftruncate(fd_, static_cast<off_t>(valid_bytes)) == 0 &&
              ::lseek(fd_, 0, SEEK_END) >= 0;
    what = "trim";
  }
  if (!init_ok) {
    if (error)
      *error = "cannot " + what + " journal '" + path + "': " + std::strerror(errno);
    ::close(fd_);
    fd_ = -1;
    return false;
  }
  return true;
#else
  (void)path;
  if (error) *error = "journals require a POSIX platform";
  return false;
#endif
}

bool JournalWriter::append(const std::string& payload) {
#if defined(__unix__) || defined(__APPLE__)
  std::lock_guard<std::mutex> lock(mu_);
  if (fd_ < 0 || failed_) return false;
  unsigned char header[kJournalHeaderSize];
  store_u32le(static_cast<std::uint32_t>(payload.size()), header);
  store_u32le(crc32(payload.data(), payload.size()), header + 4);
  // One buffer, one write(): keeps a record's header and payload in a
  // single syscall so a concurrent appender cannot interleave mid-record.
  std::string buf(reinterpret_cast<const char*>(header), kJournalHeaderSize);
  buf += payload;
  const char* p = buf.data();
  std::size_t left = buf.size();
  while (left > 0) {
    const ssize_t n = ::write(fd_, p, left);
    if (n < 0) {
      if (errno == EINTR) continue;
      failed_ = true;
      return false;
    }
    p += n;
    left -= static_cast<std::size_t>(n);
  }
  if (::fsync(fd_) != 0) {
    failed_ = true;
    return false;
  }
  return true;
#else
  (void)payload;
  return false;
#endif
}

void JournalWriter::close() {
#if defined(__unix__) || defined(__APPLE__)
  std::lock_guard<std::mutex> lock(mu_);
  if (fd_ >= 0) {
    ::fsync(fd_);
    ::close(fd_);
    fd_ = -1;
  }
#endif
}

}  // namespace tcr::guard
