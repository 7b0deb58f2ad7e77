#include "common.hpp"

#include <sys/resource.h>

#include <atomic>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "common/rng.hpp"
#include "core/format.hpp"
#include "core/pipeline.hpp"
#include "metrics/error_stats.hpp"

namespace perfbench {

namespace {

std::string num(f64 v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

thread_local u64 tLane = 0;
std::atomic<u64> gNextLane{1};

u64 laneOfThisThread() {
  if (tLane == 0) tLane = gNextLane.fetch_add(1);
  return tLane;
}

}  // namespace

// ---- Leg ------------------------------------------------------------------

void Leg::add(const std::string& series, f64 value) {
  std::lock_guard lock(mutex_);
  series_[series].push_back(value);
}

void Leg::set(const std::string& scalar, f64 value) {
  std::lock_guard lock(mutex_);
  scalars_[scalar] = value;
}

void Leg::addTo(const std::string& scalar, f64 delta) {
  std::lock_guard lock(mutex_);
  scalars_[scalar] += delta;
}

std::string Leg::json() const {
  std::lock_guard lock(mutex_);
  std::string out = "{\"series\": {";
  bool first = true;
  for (const auto& [name, values] : series_) {
    out += (first ? "" : ", ") + quoted(name) + ": [";
    for (usize i = 0; i < values.size(); ++i) {
      if (i) out += ',';
      out += num(values[i]);
    }
    out += "]";
    first = false;
  }
  out += "}, \"scalars\": {";
  first = true;
  for (const auto& [name, value] : scalars_) {
    out += (first ? "" : ", ") + quoted(name) + ": " + num(value);
    first = false;
  }
  return out + "}}";
}

// ---- Span -----------------------------------------------------------------

Span::Span(cuszp2::telemetry::TraceSession* session, const char* name)
    : session_(session), name_(name) {
  if (session_ != nullptr) startUs_ = session_->nowUs();
}

Span::~Span() {
  if (session_ == nullptr) return;
  recordSpan(session_, name_, startUs_, session_->nowUs(), laneOfThisThread());
}

void recordSpan(cuszp2::telemetry::TraceSession* session, const char* name,
                f64 t0Us, f64 endUs, u64 lane) {
  using cuszp2::telemetry::TraceArg;
  session->complete(name, endUs - t0Us,
                    {TraceArg::num("t0", t0Us),
                     TraceArg::num("lane", static_cast<f64>(lane))});
}

// ---- Ledger ---------------------------------------------------------------

void Ledger::attempt(u64 n) {
  std::lock_guard lock(mutex_);
  attempted_ += n;
}

void Ledger::fail(const std::string& what) {
  std::lock_guard lock(mutex_);
  ++failed_;
  if (messages_.size() < 8) messages_.push_back(what);
}

void Ledger::noteErrorRatio(f64 ratio) {
  std::lock_guard lock(mutex_);
  if (!(ratio <= maxErrRatio_)) maxErrRatio_ = ratio;  // NaN sticks
}

u64 Ledger::attempted() const {
  std::lock_guard lock(mutex_);
  return attempted_;
}

u64 Ledger::failed() const {
  std::lock_guard lock(mutex_);
  return failed_;
}

std::string Ledger::json() const {
  std::lock_guard lock(mutex_);
  std::string out = "\"attempted\": " + std::to_string(attempted_) +
                    ", \"failed\": " + std::to_string(failed_) +
                    ", \"max_err_ratio\": " + num(maxErrRatio_) +
                    ", \"errors\": [";
  for (usize i = 0; i < messages_.size(); ++i) {
    out += (i ? ", " : "") + quoted(messages_[i]);
  }
  return out + "]";
}

template <typename T>
void checkDecode(Ledger& ledger, std::span<const T> original,
                 std::span<const T> decoded, f64 bound, const std::string& what) {
  ledger.attempt();
  if (decoded.size() != original.size()) {
    ledger.fail(what + ": decoded " + std::to_string(decoded.size()) +
                " of " + std::to_string(original.size()) + " elements");
    return;
  }
  const auto stats = cuszp2::metrics::computeErrorStats<T>(original, decoded);
  const f64 halfUlp = stats.maxAbsValue * (sizeof(T) == 4 ? 6.0e-8 : 1.2e-16);
  ledger.noteErrorRatio(stats.maxAbsError / (bound * (1.0 + 1e-12) + halfUlp));
  if (!stats.withinBoundFp(bound, cuszp2::precisionOf<T>())) {
    ledger.fail(what + ": error bound violated");
  }
}

template <typename T>
f64 absBoundOf(f64 rel, std::span<const T> data) {
  const f64 bound = rel * cuszp2::metrics::valueRange<T>(data);
  return bound > 0.0 ? bound : rel;
}

void checkHeaderBound(Ledger& ledger, cuszp2::ConstByteSpan stream, f64 bound,
                      const std::string& what) {
  ledger.attempt();
  const f64 recorded = cuszp2::core::StreamHeader::parse(stream).absErrorBound;
  if (!(recorded <= bound * (1.0 + 1e-12))) {
    ledger.fail(what + ": header bound " + num(recorded) + " looser than " +
                num(bound));
  }
}

template f64 absBoundOf<cuszp2::f32>(f64, std::span<const cuszp2::f32>);
template f64 absBoundOf<f64>(f64, std::span<const f64>);
template void checkDecode<cuszp2::f32>(Ledger&, std::span<const cuszp2::f32>,
                                       std::span<const cuszp2::f32>, f64,
                                       const std::string&);
template void checkDecode<f64>(Ledger&, std::span<const f64>,
                               std::span<const f64>, f64, const std::string&);

// ---- Breakdown ------------------------------------------------------------

void Breakdown::add(cuszp2::ConstByteSpan stream) {
  using cuszp2::core::StreamHeader;
  const StreamHeader h = StreamHeader::parse(stream);
  const u64 fixed = StreamHeader::kBytes + h.descriptorBytes() +
                    h.dictBytes + h.footerBytes();
  header += StreamHeader::kBytes;
  descriptor += h.descriptorBytes();
  dict += h.dictBytes;
  digest += h.footerBytes();
  payload += stream.size() > fixed ? stream.size() - fixed : 0;
  if (h.version < cuszp2::core::kFormatVersionV3) {
    pipelineBlocks[0] += h.numBlocks();
    return;
  }
  const std::byte* desc = stream.data() + StreamHeader::offsetsBegin();
  for (u64 b = 0; b < h.numBlocks(); ++b) {
    const auto d = cuszp2::core::V3BlockDesc::unpack(
        desc + b * cuszp2::core::kV3DescBytes);
    if (d.knownPipeline()) ++pipelineBlocks[static_cast<u32>(d.pipeline)];
  }
}

void Breakdown::writeTo(Leg& leg) const {
  leg.addTo("bytes.header", static_cast<f64>(header));
  leg.addTo("bytes.descriptor", static_cast<f64>(descriptor));
  leg.addTo("bytes.dict", static_cast<f64>(dict));
  leg.addTo("bytes.digest", static_cast<f64>(digest));
  leg.addTo("bytes.payload", static_cast<f64>(payload));
  const char* names[4] = {"blocks.fle", "blocks.huffman", "blocks.rle",
                          "blocks.lorenzo_fle"};
  for (u32 i = 0; i < 4; ++i) {
    leg.addTo(names[i], static_cast<f64>(pipelineBlocks[i]));
  }
}

// ---- Report ---------------------------------------------------------------

Leg& Report::leg(const std::string& name) {
  auto& slot = legs[name];
  if (!slot) slot = std::make_unique<Leg>();
  return *slot;
}

bool Report::write() const {
  std::string out = "{\"workload\": " + quoted(options.workload) +
                    ", \"seed\": " + std::to_string(options.seed) +
                    ", \"gen_s\": " + num(genSeconds) + ", \"setup_s\": [";
  for (usize i = 0; i < setupSeconds.size(); ++i) {
    out += (i ? ", " : "") + num(setupSeconds[i]);
  }
  out += "], \"peak_rss_mb\": " + num(peakRssMb) +
         ", \"input_mb\": " + num(static_cast<f64>(inputBytes) / (1 << 20)) +
         ", " + ledger.json() +
         ", \"trace_file\": " + quoted(traceFile) + ", \"notes\": {";
  bool first = true;
  for (const auto& [k, v] : notes) {
    out += (first ? "" : ", ") + quoted(k) + ": " + quoted(v);
    first = false;
  }
  out += "}, \"legs\": {";
  first = true;
  for (const auto& [name, leg] : legs) {
    out += (first ? "" : ", ") + quoted(name) + ": " + leg->json();
    first = false;
  }
  out += "}}\n";
  std::ofstream f(options.out, std::ios::binary | std::ios::trunc);
  f << out;
  return static_cast<bool>(f);
}

// ---- process helpers ------------------------------------------------------

bool resetPeakRss() {
  std::ofstream f("/proc/self/clear_refs");
  if (!f) return false;
  f << "5";
  return static_cast<bool>(f.flush());
}

f64 peakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      f64 kb = 0.0;
      if (fields >> kb) return kb / 1024.0;
    }
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<f64>(usage.ru_maxrss) / 1024.0;
}

u64 mixSeed(u64 seed, u64 purpose) {
  cuszp2::SplitMix64 mix(seed ^ (0x9E3779B97F4A7C15ull * (purpose + 1)));
  return mix.next();
}

}  // namespace perfbench
