// Incremental reader for heartbeat streams (journal-framed JSON records).
//
// `guard::read_journal` reads a whole file once; a live inspector needs to
// *tail* a file another process is still appending to. StreamReader keeps a
// byte offset and, on each poll(), consumes every complete record appended
// since the last poll, parsing payloads as JSON.
//
// Torn-tail semantics (the satellite fix — surfaced to callers instead of
// being swallowed): bytes after the last complete record are reported via
// truncated_tail(). While the writer is alive that is simply an append in
// flight and a later poll() completes it; on a crashed/killed run it is the
// torn final record the journal format guarantees, and `tcr-top` reports
// "stream truncated (crash?)". Framing is checked by the same
// guard::has_journal_magic / guard::scan_frames as guard::read_journal, so
// the hard errors (bad magic, implausible length, a CRC mismatch with more
// bytes after it) carry the same byte offsets; an unparsable JSON payload
// is a hard error too.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "tcr/obs/json.hpp"

namespace tcr::telemetry {

class StreamReader {
 public:
  explicit StreamReader(std::string path) : path_(std::move(path)) {}

  /// Append any newly-completed records to *out (parsed payloads). Returns
  /// false on a hard error (*error set); a missing or still-empty file is
  /// not an error, it is "nothing yet". Safe to call repeatedly.
  bool poll(std::vector<obs::Json>* out, std::string* error);

  const std::string& path() const { return path_; }
  /// Magic validated — at least one poll saw a well-formed stream head.
  bool opened() const { return opened_; }
  /// The last poll() left bytes beyond the final complete record (an
  /// append in flight, or a torn tail from a killed writer).
  bool truncated_tail() const { return pending_tail_; }
  /// Complete records consumed so far.
  std::int64_t records_read() const { return records_read_; }

 private:
  std::string path_;
  std::string buf_;             // unconsumed bytes (tail of the file so far)
  std::uint64_t file_offset_ = 0;  // bytes of the file already read into buf_
  bool opened_ = false;
  bool pending_tail_ = false;
  std::int64_t records_read_ = 0;
};

}  // namespace tcr::telemetry
