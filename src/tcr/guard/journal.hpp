// Crash-safe append-only record journal for checkpoint/resume.
//
// File format (all integers little-endian):
//
//   offset 0: 8-byte magic "TCRJNL01"
//   then, per record:  [u32 payload length][u32 CRC-32 of payload][payload]
//
// The writer appends one record per completed unit of work (a sweep point)
// and fsyncs after every append, so at any kill point the file is a valid
// prefix plus at most one torn record. The reader distinguishes the two
// failure classes a crash can leave from real corruption:
//
//   * a torn *final* record (short header, short payload, or a CRC mismatch
//     on the last record — the write raced the kill) is dropped and
//     reported via truncated_tail, not an error;
//   * a bad magic or a mid-file length/CRC violation is a hard,
//     position-bearing error — the file is not a journal, or lost bytes in
//     the middle, and resuming from it would silently skip work.
//
// Payloads are opaque bytes; the sweep layer defines its own point codec
// (core/tradeoff.hpp, SweepCheckpoint). Writer appends are thread-safe —
// parallel sweep chains share one journal.
#pragma once

#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace tcr::guard {

/// CRC-32 (IEEE 802.3, polynomial 0xEDB88320) of a byte range.
std::uint32_t crc32(const void* data, std::size_t size) noexcept;

// Framing constants. The frame scanner below is shared with incremental
// readers of the same format (telemetry/stream.hpp tails heartbeat streams
// written in journal frames).
inline constexpr char kJournalMagic[8] = {'T', 'C', 'R', 'J', 'N', 'L', '0', '1'};
inline constexpr std::size_t kJournalMagicSize = sizeof(kJournalMagic);
inline constexpr std::size_t kJournalHeaderSize = 8;  // u32 length + u32 crc
/// Records hold sweep points or heartbeat JSON (a few KB each); a length
/// beyond this is not a record, it is garbage read as a length.
inline constexpr std::uint32_t kJournalMaxRecordSize = 1u << 30;

/// Does `bytes` start with the journal magic?
bool has_journal_magic(std::string_view bytes) noexcept;

/// The complete frames of a byte range (see scan_frames).
struct FrameScan {
  std::vector<std::string_view> payloads;  ///< views into the scanned bytes
  std::size_t end = 0;  ///< offset just past the last complete frame
  std::string error;    ///< hard error with byte offset; empty when ok
};

/// Walk the [len][crc][payload] frames of `bytes` (which start right after
/// the magic, or after an earlier complete frame). Scanning stops cleanly at
/// a torn tail — a short header, a short payload, or a CRC mismatch on the
/// final frame — leaving `end` before it. An implausible length, or a CRC
/// mismatch with bytes after it, is a hard error naming the file offset
/// (`file_offset` is the offset of bytes[0]) and the record index
/// (`first_record` is the index of the first frame in `bytes`).
FrameScan scan_frames(std::string_view bytes, std::uint64_t file_offset,
                      std::size_t first_record);

/// Everything read back from a journal file.
struct JournalContents {
  bool ok = false;              ///< false => error is set, records unusable
  bool truncated_tail = false;  ///< a torn final record was dropped
  std::vector<std::string> records;  ///< payloads, in append order
  std::string error;  ///< hard failure with byte offset; empty when ok
};

/// Read and validate a journal. A missing file is a hard error (resuming
/// from nothing is a caller bug); an empty-but-valid journal returns ok
/// with no records.
JournalContents read_journal(const std::string& path);

/// Appender. open() creates the file (with magic) or validates an existing
/// one and truncates a torn tail so appends continue from the last good
/// record. Every append writes header + payload and fsyncs before
/// returning: once append() returns true the record survives any kill.
class JournalWriter {
 public:
  JournalWriter() = default;
  ~JournalWriter() { close(); }
  JournalWriter(const JournalWriter&) = delete;
  JournalWriter& operator=(const JournalWriter&) = delete;

  /// Open for appending; returns false and fills *error on failure
  /// (including hard corruption of an existing file).
  bool open(const std::string& path, std::string* error);

  /// Durably append one record. Thread-safe. Returns false once the
  /// underlying file has failed; further appends are dropped.
  bool append(const std::string& payload);

  bool is_open() const { return fd_ >= 0; }
  bool ok() const { return is_open() && !failed_; }
  const std::string& path() const { return path_; }

  void close();

 private:
  std::mutex mu_;
  std::string path_;
  int fd_ = -1;
  bool failed_ = false;
};

}  // namespace tcr::guard
