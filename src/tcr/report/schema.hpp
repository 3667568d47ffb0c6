// The versioned uniform schema every bench's `--json` output follows, and
// its parser. A run file is JSON-lines:
//
//   {"schema_version":1,"kind":"meta","bench":"<id>","params":{...},
//    "provenance":{...}}
//   {"kind":"point","bench":"<id>","point":{...},"obs":{...},"perf":{...}}
//   ...
//
// The first line is the run header (`kind: "meta"`): schema version, bench
// id, the resolved CLI parameters of the run, and the build/host provenance
// (git SHA, compiler, build type, CPU model — perf::provenance_json).
// Every following line is one series point; `point` holds the paper-series
// values (capacity fractions, normalized localities, certificates), `obs`
// the instrumentation snapshot covering that point's work, and `perf` (only
// under --perf) the hardware-counter/rusage sample of the same work
// (perf::Sample::to_json). tcr-repro consumes these records to gate golden
// values and count certificate failures; tcr-perf consumes the perf blocks
// and provenance to build the BENCH_history regression store. `provenance`
// and `perf` are additive within schema v1 — absent in older records, both
// parse as null.
#pragma once

#include <string>
#include <vector>

#include "tcr/obs/json.hpp"
#include "tcr/perf/history.hpp"

namespace tcr::report {

/// Version of the record schema written by bench::JsonOutput and accepted
/// by this parser. Bump on any incompatible record-shape change.
inline constexpr int kSchemaVersion = 1;

/// One series point of a bench run: the paper-series values plus the
/// (optional) obs snapshot of the work behind them.
struct BenchRecord {
  obs::Json point;  ///< series values (object)
  obs::Json obs;    ///< instrumentation snapshot; null when absent
  obs::Json perf;   ///< perf::Sample block (--perf runs); null when absent
};

/// A parsed `--json` run: header plus all of its points.
struct BenchRun {
  int schema_version = 0;
  std::string bench;     ///< bench id, e.g. "fig1_wc_tradeoff"
  obs::Json params;      ///< resolved CLI parameters of the run (object)
  obs::Json provenance;  ///< build/host provenance; null in older records
  std::vector<BenchRecord> records;
  /// Non-empty when the reader ran tail-tolerant and dropped a torn final
  /// record (position-bearing description). Consumers gating golden values
  /// must treat such a run as partial, never as a clean measurement set.
  std::string truncation_note;
};

struct RunFileOptions {
  /// Tolerate a torn final record (writer killed mid-line): drop it, note
  /// it in BenchRun::truncation_note, and parse the rest. Mid-file
  /// corruption stays a hard, position-bearing error either way.
  bool tolerate_truncated_tail = false;
};

/// Parse one bench run file (JSON-lines, first line `kind:"meta"`).
/// Returns false and fills *error on malformed input, a missing/foreign
/// header, or an unsupported schema_version.
bool parse_run_file(const std::string& path, BenchRun* out, std::string* error,
                    const RunFileOptions& options = {});

/// Numeric series value of a point, by field name. Missing fields and JSON
/// null (the writer's encoding of NaN — unsolved points) both return NaN.
double point_number(const BenchRecord& rec, const std::string& field);

/// True when every key/value pair of `match` (an object of scalars) equals
/// the corresponding field of the record's point. Numbers compare by value,
/// strings and bools exactly.
bool point_matches(const BenchRecord& rec, const obs::Json& match);

/// Certificate tally across a set of runs. Every point field named
/// "certificate" (at top level of the point) with `checked:true` counts;
/// `pass:false` among those is a published-number bug.
struct CertificateTally {
  long long checked = 0;
  long long failed = 0;
};
CertificateTally tally_certificates(const std::vector<BenchRun>& runs);

/// Distill one bench run (whose point records carry `perf` blocks) into a
/// perf history entry: delta quantities are summed across points,
/// max_rss_kb takes the max (it is a process high-water mark). Returns
/// false (with *error) when no record carries a perf block — the run was
/// made without --perf.
bool entry_from_run(const BenchRun& run, perf::HistoryEntry* out, std::string* error);

}  // namespace tcr::report
