// Shared pieces of the benchmark harness: run options, the raw-result
// document every workload fills, span recording and the correctness ledger.
//
// The harness only measures and checks. Every statistic (percentiles,
// self time, validity of an open-loop run) is computed afterwards by
// perfbench/stats.py from the raw samples written here, so the rules live
// in one tested place.
#pragma once

#include <chrono>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "common/types.hpp"
#include "telemetry/trace.hpp"

namespace perfbench {

using cuszp2::f64;
using cuszp2::u32;
using cuszp2::u64;
using cuszp2::usize;
using Clock = std::chrono::steady_clock;

inline f64 secondsSince(Clock::time_point t) {
  return std::chrono::duration<f64>(Clock::now() - t).count();
}

inline f64 msBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<f64, std::milli>(b - a).count();
}

struct Options {
  std::string workload;
  u64 seed = 1;
  f64 seconds = 10.0;
  /// Alternate operations between an untraced and a traced leg (spans are
  /// recorded only for the traced one); otherwise every operation is
  /// untraced.
  bool trace = false;
  std::string out;      // raw-result JSON written here
  std::string workdir;  // scratch directory (archive files, trace JSON)
};

/// Raw samples of one measured leg. Series hold one value per operation;
/// scalars hold counts and totals. Thread-safe: the service workload's
/// collector threads record concurrently.
class Leg {
 public:
  void add(const std::string& series, f64 value);
  void set(const std::string& scalar, f64 value);
  void addTo(const std::string& scalar, f64 delta);
  std::string json() const;

 private:
  mutable std::mutex mutex_;
  std::map<std::string, std::vector<f64>> series_;
  std::map<std::string, f64> scalars_;
};

/// Spans recorded from the harness around each call into a layer, kept in
/// a telemetry::TraceSession and written out when the run ends. Each span
/// is a complete event whose args carry its exact start ("t0", µs since
/// the session began) and the recording thread's lane, so stats.py can
/// rebuild nesting per thread and compute self time. A null session
/// records nothing (the untraced legs).
class Span {
 public:
  Span(cuszp2::telemetry::TraceSession* session, const char* name);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  cuszp2::telemetry::TraceSession* session_;
  const char* name_;
  f64 startUs_ = 0.0;
};

/// Records one finished span [t0Us, endUs] (session microseconds) on
/// `lane`. Lane 0 is reserved for operation intervals that are not calls
/// (an open-loop job from its due time until it resolves); stats.py uses
/// them for span coverage and leaves them out of self time.
void recordSpan(cuszp2::telemetry::TraceSession* session, const char* name,
                f64 t0Us, f64 endUs, u64 lane);

/// Correctness ledger: every checked operation is attempted once and
/// fails at most once. Thread-safe.
class Ledger {
 public:
  void attempt(u64 n = 1);
  /// Records a failed check; keeps the first few messages for the report.
  void fail(const std::string& what);
  /// Records |err| / bound of one checked decode.
  void noteErrorRatio(f64 ratio);
  u64 attempted() const;
  u64 failed() const;
  std::string json() const;

 private:
  mutable std::mutex mutex_;
  u64 attempted_ = 0;
  u64 failed_ = 0;
  f64 maxErrRatio_ = 0.0;
  std::vector<std::string> messages_;
};

/// Checks a decode element-wise against an absolute error bound with
/// metrics::computeErrorStats, allowing the half-ulp the final rounding to
/// the storage type may add (ErrorStats::withinBoundFp), and records one
/// attempt, |err| over the allowed error, and a failure named `what` when
/// the bound or the length does not hold.
template <typename T>
void checkDecode(Ledger& ledger, std::span<const T> original,
                 std::span<const T> decoded, f64 bound, const std::string& what);

/// The absolute bound a REL bound stands for on `data`: rel * (max - min),
/// as core::Config defines it, or rel itself for a constant input, which
/// has no range to scale (the codec's documented fallback). The harness
/// computes it from the input itself, so a stream under test never
/// supplies the bound it is checked against.
template <typename T>
f64 absBoundOf(f64 rel, std::span<const T> data);

/// Records one attempt, and a failure named `what` when a stream's header
/// records a looser absolute bound than `bound`, the one the harness
/// expects for its input and Config.
void checkHeaderBound(Ledger& ledger, cuszp2::ConstByteSpan stream, f64 bound,
                      const std::string& what);

/// Byte breakdown of compressed streams, taken only through the public
/// StreamHeader::parse and V3BlockDesc::unpack.
struct Breakdown {
  u64 header = 0;
  u64 descriptor = 0;
  u64 dict = 0;
  u64 digest = 0;
  u64 payload = 0;
  u64 pipelineBlocks[4] = {0, 0, 0, 0};

  void add(cuszp2::ConstByteSpan stream);
  void writeTo(Leg& leg) const;
};

/// Everything one harness run reports (see stats.py for the reader).
struct Report {
  Options options;
  f64 genSeconds = 0.0;
  std::vector<f64> setupSeconds;
  /// Peak resident memory from the end of set-up to the end of the run.
  f64 peakRssMb = 0.0;
  /// Bytes of inputs and references the harness holds for the whole run;
  /// peak_rss_mb is reported net of them.
  u64 inputBytes = 0;
  Ledger ledger;
  std::map<std::string, std::unique_ptr<Leg>> legs;
  std::string traceFile;
  std::map<std::string, std::string> notes;

  Leg& leg(const std::string& name);
  bool write() const;
};

/// Resets the kernel's peak-RSS mark (VmHWM) so the reported peak covers
/// only what follows; returns false where that is unsupported.
bool resetPeakRss();
/// Peak resident set size in MiB (VmHWM, falling back to getrusage).
f64 peakRssMb();

/// Deterministic per-purpose random stream derived from the run seed.
u64 mixSeed(u64 seed, u64 purpose);

int runFieldCodec(const Options& opt, Report& report);
int runServiceMixed(const Options& opt, Report& report);
int runArchiveStore(const Options& opt, Report& report);

}  // namespace perfbench
