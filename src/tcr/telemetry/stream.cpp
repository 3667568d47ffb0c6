#include "tcr/telemetry/stream.hpp"

#include <fstream>

#include "tcr/guard/journal.hpp"

namespace tcr::telemetry {

bool StreamReader::poll(std::vector<obs::Json>* out, std::string* error) {
  // Pull in whatever the writer appended since the last poll. A missing or
  // empty file is "nothing yet", not an error — follow mode may start the
  // reader before the writer.
  {
    std::ifstream in(path_, std::ios::binary);
    if (in) {
      in.seekg(static_cast<std::streamoff>(file_offset_));
      char chunk[1 << 16];
      while (in.read(chunk, sizeof(chunk)) || in.gcount() > 0) {
        buf_.append(chunk, static_cast<std::size_t>(in.gcount()));
        file_offset_ += static_cast<std::uint64_t>(in.gcount());
      }
      if (in.bad()) {
        if (error != nullptr) *error = "I/O error reading '" + path_ + "'";
        return false;
      }
    }
  }

  const auto fail = [&](const std::string& what) {
    if (error != nullptr) *error = what;
    return false;
  };

  if (!opened_) {
    if (buf_.size() < guard::kJournalMagicSize) {
      pending_tail_ = !buf_.empty();
      return true;
    }
    if (!guard::has_journal_magic(buf_)) {
      return fail("'" + path_ + "' is not a heartbeat stream (bad magic at offset 0)");
    }
    buf_.erase(0, guard::kJournalMagicSize);
    opened_ = true;
  }

  // buf_ holds the file's unconsumed tail; scan_frames classifies a torn or
  // in-flight final frame as tail and names file offsets in its errors.
  const guard::FrameScan frames =
      guard::scan_frames(buf_, file_offset_ - buf_.size(),
                         static_cast<std::size_t>(records_read_));
  for (const std::string_view payload : frames.payloads) {
    obs::Json rec;
    std::string parse_error;
    if (!obs::parse_json(payload, &rec, &parse_error)) {
      return fail("heartbeat stream '" + path_ + "': record " +
                  std::to_string(records_read_) + " is not JSON: " + parse_error);
    }
    if (out != nullptr) out->push_back(std::move(rec));
    ++records_read_;
  }
  if (!frames.error.empty()) {
    return fail("heartbeat stream '" + path_ + "': " + frames.error);
  }
  buf_.erase(0, frames.end);
  pending_tail_ = !buf_.empty();
  return true;
}

}  // namespace tcr::telemetry
