#include "service/service.hpp"

#include <cstdio>

#include "common/rng.hpp"
#include "core/format.hpp"
#include "service/durability.hpp"
#include "telemetry/trace.hpp"

namespace cuszp2::service {

namespace {

f64 microsBetween(std::chrono::steady_clock::time_point from,
                  std::chrono::steady_clock::time_point to) {
  return std::chrono::duration<f64, std::micro>(to - from).count();
}

const char* chaosModeName(ChaosFault::Mode mode) {
  switch (mode) {
    case ChaosFault::Mode::BitFlip: return "bit_flip";
    case ChaosFault::Mode::Abort: return "abort";
    case ChaosFault::Mode::Stall: return "stall";
    case ChaosFault::Mode::Wedge: return "wedge";
    case ChaosFault::Mode::ArenaExhaust: return "arena_exhaust";
    default: return "none";
  }
}

/// Decodes a stream into a job result as raw little-endian element bytes.
template <FloatingPoint T>
void decodeInto(core::CompressorStream& stream, ConstByteSpan input,
                JobResult& result) {
  core::Decompressed<T> out = stream.decompress<T>(input);
  result.decodedElements = out.data.size();
  result.decompressProfile = out.profile;
  result.decompressed.resize(out.data.size() * sizeof(T));
  if (!out.data.empty()) {
    std::memcpy(result.decompressed.data(), out.data.data(),
                result.decompressed.size());
  }
}

template <FloatingPoint T>
core::Compressed compressJob(core::CompressorStream& stream,
                             const detail::Job& job) {
  return stream.compress<T>(std::span<const T>(
      reinterpret_cast<const T*>(job.input.data()),
      job.input.size() / sizeof(T)));
}

/// One job through the worker stream's single compress or decompress
/// launch. Codec errors propagate to execute()'s retry ladder.
void runJob(const detail::Job& job, core::CompressorStream& stream,
            JobResult& result) {
  stream.reconfigure(job.config);
  if (job.kind == JobKind::Compress) {
    result.compressed = job.precision == Precision::F32
                            ? compressJob<f32>(stream, job)
                            : compressJob<f64>(stream, job);
  } else if (core::StreamHeader::parse(job.input).precision ==
             Precision::F32) {
    decodeInto<f32>(stream, job.input, result);
  } else {
    decodeInto<f64>(stream, job.input, result);
  }
  result.ok = true;
  result.outcome = Outcome::Completed;
}

}  // namespace

CompressionService::CompressionService(ServiceConfig config)
    : config_(std::move(config)) {
  require(config_.workers > 0, "ServiceConfig: workers must be positive");
  require(config_.maxQueueDepth > 0,
          "ServiceConfig: maxQueueDepth must be positive");
  require(config_.retry.maxAttempts > 0,
          "ServiceConfig: retry.maxAttempts must be positive");
  require(!config_.watchdog.enabled || config_.watchdog.pollMillis > 0,
          "ServiceConfig: watchdog.pollMillis must be positive");

  devices_ = config_.devices.empty()
                 ? gpusim::homogeneousFleet(gpusim::a100_40gb(),
                                            config_.workers)
                 : config_.devices;
  ledger_ = std::make_shared<detail::Ledger>();

  telemetry::MetricsRegistry& reg = telemetry::registry();
  instruments_ = Instruments{
      &reg.counter("service.submitted"),
      &reg.counter("service.accepted"),
      &reg.counter("service.completed"),
      &reg.counter("service.failed"),
      &reg.counter("service.abandoned"),
      &reg.counter("service.degraded"),
      &reg.counter("service.rejected.queue_full"),
      &reg.counter("service.rejected.quota"),
      &reg.counter("service.rejected.shutdown"),
      &reg.counter("service.rejected.circuit_open"),
      &reg.counter("service.jobs_dispatched"),
      &reg.counter("service.watchdog.recoveries"),
      &reg.counter("service.retry.attempts"),
      &reg.counter("service.retry.exhausted"),
      &reg.counter("service.breaker.opens"),
      &reg.counter("service.chaos.injected"),
      &reg.histogram("service.wait_us"),
      &reg.histogram("service.service_us"),
  };
  ledger_->depthGauge = &reg.gauge("service.queue_depth");

  paused_ = config_.startPaused;

  // Durable intake: recover (and re-queue) the previous life's pending
  // jobs before any worker can race the lanes — replayed work runs first.
  if (!config_.jobJournalPath.empty()) recoverJobJournal();

  workers_.reserve(config_.workers);
  for (u32 i = 0; i < config_.workers; ++i) {
    workers_.emplace_back([this, i] { workerLoop(i); });
  }
  if (config_.watchdog.enabled) {
    watchdog_ = std::thread([this] { watchdogLoop(); });
  }
}

void CompressionService::recoverJobJournal() {
  const std::string& path = config_.jobJournalPath;
  JobJournalSummary summary;
  bool resumed = false;
  usize resumeBytes = 0;
  if (std::FILE* probe = std::fopen(path.c_str(), "rb")) {
    std::fclose(probe);
    // An unrecoverable journal (bad header / foreign ownerTag) throws —
    // construction fails rather than silently dropping accepted work.
    const io::ReplayResult replay = io::replayJournal(path);
    require(replay.ownerTag == kJobJournalOwnerTag,
            "service: " + path + " is not a job journal (ownerTag mismatch)");
    summary = summarizeJobJournal(replay);
    resumed = !summary.pending.empty();
    resumeBytes = replay.validBytes;
  }
  if (resumed) {
    // Keep the old journal (torn tail truncated): the resubmissions
    // below supersede their old ids record-by-record, so a crash at any
    // point leaves every pending job recoverable exactly once.
    jobJournal_ = io::JournalWriter::resume(path, kJobJournalOwnerTag, 0,
                                            resumeBytes);
  } else {
    // Nothing pending: start a fresh journal (atomic replacement).
    jobJournal_ = std::make_unique<io::JournalWriter>(path,
                                                      kJobJournalOwnerTag, 0);
  }
  for (JobAcceptRecord& acc : summary.pending) {
    SubmitResult res = submit(acc.tenant, acc.kind, acc.precision,
                              std::move(acc.input), acc.config, acc.priority,
                              /*supersedesId=*/acc.jobId);
    require(res.accepted(),
            "service: journal replay resubmission rejected (" + res.detail +
                ")");
    replayedJobs_.push_back(ReplayedJob{acc.jobId, std::move(res.ticket)});
  }
}

io::JournalStatus CompressionService::jobJournalStatus() const {
  io::JournalStatus st;
  if (!jobJournal_) return st;
  st.attached = true;
  st.path = jobJournal_->path();
  st.baseTick = jobJournal_->baseTick();
  st.recordsAppended = jobJournal_->recordsAppended();
  st.recordsSynced = jobJournal_->recordsSynced();
  return st;
}

CompressionService::~CompressionService() {
  shutdownImpl(std::nullopt);
}

SubmitResult CompressionService::reject(RejectReason reason,
                                        std::string detail,
                                        const std::string& tenant) {
  switch (reason) {
    case RejectReason::QueueFull:
      instruments_.rejectedQueueFull->add(1);
      statRejectedQueueFull_.fetch_add(1, std::memory_order_relaxed);
      break;
    case RejectReason::QuotaExceeded:
      instruments_.rejectedQuota->add(1);
      statRejectedQuota_.fetch_add(1, std::memory_order_relaxed);
      break;
    case RejectReason::ShuttingDown:
      instruments_.rejectedShutdown->add(1);
      statRejectedShutdown_.fetch_add(1, std::memory_order_relaxed);
      break;
    case RejectReason::CircuitOpen:
      instruments_.rejectedCircuitOpen->add(1);
      statRejectedCircuitOpen_.fetch_add(1, std::memory_order_relaxed);
      break;
  }
  telemetry::MetricsRegistry& reg = telemetry::registry();
  if (reg.enabled()) {
    reg.counter("service.tenant." + tenant + ".rejected").add(1);
  }
  SubmitResult out;
  out.reason = reason;
  out.detail = std::move(detail);
  return out;
}

SubmitResult CompressionService::submit(const std::string& tenant,
                                        JobKind kind, Precision precision,
                                        std::vector<std::byte> input,
                                        const core::Config& config,
                                        u8 priority, u64 supersedesId) {
  require(!tenant.empty(), "CompressionService::submit: empty tenant id");
  config.validate();
  instruments_.submitted->add(1);
  statSubmitted_.fetch_add(1, std::memory_order_relaxed);

  if (!accepting_.load(std::memory_order_acquire)) {
    return reject(RejectReason::ShuttingDown, "service is shutting down",
                  tenant);
  }

  // Circuit breaker: shed a tenant whose jobs keep failing before its
  // bytes ever reach the ledger.
  {
    std::string breakerDetail;
    if (!breakerAdmits(tenant, &breakerDetail)) {
      return reject(RejectReason::CircuitOpen, std::move(breakerDetail),
                    tenant);
    }
  }

  // Admission: reserve a queue slot and the tenant's bytes, or shed load.
  {
    std::lock_guard<std::mutex> lock(ledger_->mutex);
    if (ledger_->depth >= config_.maxQueueDepth) {
      return reject(RejectReason::QueueFull,
                    "queue depth at configured maximum (" +
                        std::to_string(config_.maxQueueDepth) + ")",
                    tenant);
    }
    if (config_.tenantQuotaBytes > 0) {
      u64 outstanding = 0;
      auto it = ledger_->tenantBytes.find(tenant);
      if (it != ledger_->tenantBytes.end()) outstanding = it->second;
      if (outstanding + input.size() > config_.tenantQuotaBytes) {
        return reject(
            RejectReason::QuotaExceeded,
            "tenant '" + tenant + "' outstanding bytes " +
                std::to_string(outstanding + input.size()) +
                " would exceed quota " +
                std::to_string(config_.tenantQuotaBytes),
            tenant);
      }
    }
    ledger_->depth += 1;
    ledger_->tenantBytes[tenant] += input.size();
    if (ledger_->depthGauge != nullptr) {
      ledger_->depthGauge->set(static_cast<f64>(ledger_->depth));
    }
  }

  auto job = std::make_shared<detail::Job>();
  job->tenant = tenant;
  job->kind = kind;
  job->precision = precision;
  job->priority = priority;
  job->config = config;
  job->input = std::move(input);
  job->submitted = std::chrono::steady_clock::now();
  job->ledger = ledger_;

  // Phase 1: reserve the job id (the journal record needs it) without
  // exposing the job to the scheduler yet.
  bool lostToShutdown = false;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (!accepting_.load(std::memory_order_relaxed)) {
      lostToShutdown = true;
    } else {
      job->id = nextJobId_++;
    }
  }
  if (lostToShutdown) {
    ledger_->release(tenant, job->input.size());
    return reject(RejectReason::ShuttingDown, "service is shutting down",
                  tenant);
  }

  // Phase 2 (durable intake): append + sync the Accept record BEFORE the
  // job becomes runnable. If the sync dies (a crash drill, a full disk),
  // the error propagates and the job was never queued — an un-acked
  // submission recovery is allowed to lose. The ack a caller gets by
  // this returning implies a durable record.
  if (jobJournal_) {
    JobAcceptRecord acc;
    acc.jobId = job->id;
    acc.supersedesId = supersedesId;
    acc.tenant = tenant;
    acc.kind = kind;
    acc.precision = precision;
    acc.priority = priority;
    acc.config = config;
    acc.input = job->input;  // job holds the canonical copy
    try {
      jobJournal_->append(kJobRecordAccept, encodeJobAccept(acc));
      jobJournal_->sync();
    } catch (...) {
      // No ack happens: un-charge the admission so the job is not a
      // phantom ledger entry (a drain would otherwise wait on it
      // forever — the crash drills die exactly here).
      ledger_->release(tenant, job->input.size());
      throw;
    }
    job->durableResolve = [this](u64 jobId, Outcome outcome) {
      try {
        jobJournal_->append(kJobRecordResolve,
                            encodeJobResolve(jobId, outcome));
        jobJournal_->sync();
      } catch (const Error&) {
        // Best-effort: a lost resolve re-executes the job at the next
        // recovery; it must never kill the resolving thread.
      }
    };
  }

  // Phase 3: publish to the scheduler (re-checking intake — shutdown may
  // have flipped while we journaled).
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (!accepting_.load(std::memory_order_relaxed)) {
      lostToShutdown = true;
    } else {
      lanes_.push(job);
    }
  }
  if (lostToShutdown) {
    // The Accept record is already durable; retire it so a restart does
    // not replay a job whose submission we are about to refuse.
    if (job->durableResolve) {
      job->durableResolve(job->id, Outcome::Abandoned);
    }
    ledger_->release(tenant, job->input.size());
    return reject(RejectReason::ShuttingDown, "service is shutting down",
                  tenant);
  }
  workCv_.notify_one();

  instruments_.accepted->add(1);
  statAccepted_.fetch_add(1, std::memory_order_relaxed);
  SubmitResult out;
  out.ticket = Ticket(std::move(job));
  return out;
}

void CompressionService::pause() {
  std::lock_guard<std::mutex> lock(mutex_);
  paused_ = true;
}

void CompressionService::resume() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    paused_ = false;
  }
  workCv_.notify_all();
}

bool CompressionService::shutdown() {
  return shutdownImpl(std::nullopt);
}

bool CompressionService::shutdown(std::chrono::milliseconds drainDeadline) {
  return shutdownImpl(drainDeadline);
}

bool CompressionService::shutdownImpl(
    std::optional<std::chrono::milliseconds> deadline) {
  std::lock_guard<std::mutex> shutdownLock(shutdownMutex_);
  if (shutdownDone_) return drained_;

  {
    std::lock_guard<std::mutex> lock(mutex_);
    accepting_.store(false, std::memory_order_release);
    paused_ = false;  // a paused service must still drain accepted work
  }
  workCv_.notify_all();

  bool drained = true;
  {
    std::unique_lock<std::mutex> lock(ledger_->mutex);
    auto idle = [&] { return ledger_->depth == 0; };
    if (deadline.has_value()) {
      drained = ledger_->cv.wait_for(lock, *deadline, idle);
    } else {
      ledger_->cv.wait(lock, idle);
    }
  }

  if (!drained) {
    // Deadline expired: still-queued jobs complete as failures instead of
    // hanging their tickets; jobs already on a worker run to completion.
    std::vector<std::shared_ptr<detail::Job>> abandoned;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      // Raised before the sweep so a watchdog twin or a retry waking
      // from backoff cannot requeue into lanes the drain has already
      // emptied — such jobs resolve as Abandoned (requeueOrAbandon).
      requeuesAbandon_ = true;
      abandoned = lanes_.drain();
    }
    for (std::shared_ptr<detail::Job>& job : abandoned) {
      JobResult r;
      r.outcome = Outcome::Abandoned;
      r.error = "abandoned: shutdown deadline expired before dispatch";
      r.tenant = job->tenant;
      r.kind = job->kind;
      r.jobId = job->id;
      finishJob(*job, std::move(r), /*abandoned=*/true);
    }
    std::unique_lock<std::mutex> lock(ledger_->mutex);
    ledger_->cv.wait(lock, [&] { return ledger_->depth == 0; });
  }

  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  workCv_.notify_all();
  for (std::thread& worker : workers_) {
    if (worker.joinable()) worker.join();
  }

  {
    std::lock_guard<std::mutex> lock(watchdogMutex_);
    watchdogStop_ = true;
    inFlight_.clear();
  }
  watchdogCv_.notify_all();
  if (watchdog_.joinable()) watchdog_.join();

  shutdownDone_ = true;
  drained_ = drained;
  return drained;
}

ServiceStats CompressionService::stats() const {
  ServiceStats s;
  s.submitted = statSubmitted_.load(std::memory_order_relaxed);
  s.accepted = statAccepted_.load(std::memory_order_relaxed);
  s.rejectedQueueFull =
      statRejectedQueueFull_.load(std::memory_order_relaxed);
  s.rejectedQuota = statRejectedQuota_.load(std::memory_order_relaxed);
  s.rejectedShutdown =
      statRejectedShutdown_.load(std::memory_order_relaxed);
  s.rejectedCircuitOpen =
      statRejectedCircuitOpen_.load(std::memory_order_relaxed);
  s.completed = statCompleted_.load(std::memory_order_relaxed);
  s.failed = statFailed_.load(std::memory_order_relaxed);
  s.abandoned = statAbandoned_.load(std::memory_order_relaxed);
  s.degraded = statDegraded_.load(std::memory_order_relaxed);
  s.dispatched = statDispatched_.load(std::memory_order_relaxed);
  s.batches = s.dispatched;
  s.watchdogRecoveries =
      statWatchdogRecoveries_.load(std::memory_order_relaxed);
  s.retries = statRetries_.load(std::memory_order_relaxed);
  s.retriesExhausted =
      statRetriesExhausted_.load(std::memory_order_relaxed);
  s.breakerOpens = statBreakerOpens_.load(std::memory_order_relaxed);
  s.chaosInjected = statChaosInjected_.load(std::memory_order_relaxed);
  s.streamFaultsDetected =
      statStreamFaultsDetected_.load(std::memory_order_relaxed);
  s.streamFaultRelaunches =
      statStreamFaultRelaunches_.load(std::memory_order_relaxed);
  s.queueDepth = queueDepth();
  return s;
}

usize CompressionService::queueDepth() const {
  std::lock_guard<std::mutex> lock(ledger_->mutex);
  return ledger_->depth;
}

u64 CompressionService::tenantOutstandingBytes(
    const std::string& tenant) const {
  std::lock_guard<std::mutex> lock(ledger_->mutex);
  auto it = ledger_->tenantBytes.find(tenant);
  return it == ledger_->tenantBytes.end() ? 0 : it->second;
}

cas::PutResult CompressionService::putObject(const std::string& tenant,
                                             const std::string& name,
                                             ConstByteSpan bytes) {
  require(config_.store != nullptr,
          "service: putObject requires an attached CAS (ServiceConfig::store)");
  return config_.store->put(tenant, name, bytes);
}

std::vector<std::byte> CompressionService::getObject(
    const std::string& tenant, const std::string& name) const {
  require(config_.store != nullptr,
          "service: getObject requires an attached CAS (ServiceConfig::store)");
  return config_.store->get(tenant, name);
}

bool CompressionService::eraseObject(const std::string& tenant,
                                     const std::string& name) {
  require(config_.store != nullptr,
          "service: eraseObject requires an attached CAS "
          "(ServiceConfig::store)");
  return config_.store->erase(tenant, name);
}

void CompressionService::workerLoop(u32 worker) {
  // Each worker owns one warm stream pinned to its device; reconfigure()
  // per job re-targets the codec without dropping the scratch arena.
  core::CompressorStream stream(core::Config{},
                                devices_[worker % devices_.size()]);
  // In-stream fault counters are cumulative per stream; fold the deltas
  // into the service-wide totals after every job.
  u64 seenFaultsDetected = 0;
  u64 seenFaultRelaunches = 0;
  for (;;) {
    std::shared_ptr<detail::Job> job;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      workCv_.wait(lock, [&] {
        return stopping_ || (!paused_ && lanes_.entries() > 0);
      });
      if (stopping_) return;
      job = lanes_.pop();
      if (job == nullptr) continue;  // only tombstones were queued
      job->dispatchSeq = ++dispatchSeq_;
    }
    execute(job, stream, worker);
    const u64 detected = stream.faultsDetected();
    const u64 relaunches = stream.faultRelaunches();
    statStreamFaultsDetected_.fetch_add(detected - seenFaultsDetected,
                                        std::memory_order_relaxed);
    statStreamFaultRelaunches_.fetch_add(relaunches - seenFaultRelaunches,
                                         std::memory_order_relaxed);
    seenFaultsDetected = detected;
    seenFaultRelaunches = relaunches;
  }
}

void CompressionService::execute(const std::shared_ptr<detail::Job>& job,
                                 core::CompressorStream& stream,
                                 u32 worker) {
  const auto dispatched = std::chrono::steady_clock::now();
  job->attempt.fetch_add(1, std::memory_order_relaxed);
  statDispatched_.fetch_add(1, std::memory_order_relaxed);
  instruments_.jobsDispatched->add(1);

  // Chaos: consult the hook for this attempt and arm its fault plan on
  // this worker's stream for exactly this execution.
  if (config_.chaosHook) {
    ChaosJobInfo info;
    info.jobId = job->id;
    info.tenant = job->tenant;
    info.kind = job->kind;
    info.inputBytes = job->input.size();
    info.attempt = job->attempt.load(std::memory_order_relaxed) - 1;
    armChaosFault(stream, config_.chaosHook(info));
  }

  if (config_.watchdog.enabled) {
    watchdogWatch(job, dispatched, stream.device());
  }

  JobResult r;
  std::string failure;
  try {
    runJob(*job, stream, r);
  } catch (const std::exception& e) {
    failure = e.what();
    if (failure.empty()) failure = "unknown codec error";
  }
  if (config_.chaosHook) stream.launcher().clearFaultPlan();

  const auto finishedAt = std::chrono::steady_clock::now();

  if (!failure.empty()) {
    const u32 attempt = job->attempt.load(std::memory_order_relaxed);
    if (attempt < config_.retry.maxAttempts) {
      statRetries_.fetch_add(1, std::memory_order_relaxed);
      instruments_.retries->add(1);
      if (telemetry::TraceSession* trace = telemetry::activeTrace()) {
        trace->instant(
            "service.retry",
            {telemetry::TraceArg::str("tenant", job->tenant),
             telemetry::TraceArg::num("job_id", static_cast<f64>(job->id)),
             telemetry::TraceArg::num("attempt", attempt)});
      }
      backoffSleep(job->id, attempt);
      requeue(job);
      return;
    }

    statRetriesExhausted_.fetch_add(1, std::memory_order_relaxed);
    instruments_.retriesExhausted->add(1);
    if (job->kind == JobKind::Decompress && config_.degradedDecode) {
      runDegradedDecode(*job, stream, r, failure);
    } else {
      r = JobResult{};
      r.outcome = Outcome::Failed;
      r.error = failure;
    }
  }

  r.tenant = job->tenant;
  r.kind = job->kind;
  r.jobId = job->id;
  r.dispatchSeq = job->dispatchSeq;
  r.worker = worker;
  r.device = stream.device().name;
  r.waitUs = microsBetween(job->submitted, dispatched);
  r.serviceUs = microsBetween(dispatched, finishedAt);
  finishJob(*job, std::move(r), /*abandoned=*/false);
}

namespace {

/// Copies a salvage result into the job's JobResult. A clean report means
/// the failure was transient (e.g. an injected fault on the strict path)
/// and the re-decode is complete — the job counts as Completed.
template <FloatingPoint T>
void fillSalvaged(core::Salvaged<T>&& salvaged, JobResult& result,
                  const std::string& failure) {
  result.decodedElements = salvaged.data.size();
  result.decompressed.resize(salvaged.data.size() * sizeof(T));
  if (!salvaged.data.empty()) {
    std::memcpy(result.decompressed.data(), salvaged.data.data(),
                result.decompressed.size());
  }
  result.decompressProfile = salvaged.profile;
  result.decodeReport = std::move(salvaged.report);
  if (result.decodeReport.clean()) {
    result.ok = true;
    result.outcome = Outcome::Completed;
  } else {
    result.outcome = Outcome::Degraded;
    result.error = "degraded decode: " + failure;
  }
}

}  // namespace

void CompressionService::runDegradedDecode(detail::Job& job,
                                           core::CompressorStream& stream,
                                           JobResult& result,
                                           const std::string& failure) {
  result = JobResult{};
  Precision precision = Precision::F32;
  try {
    precision = core::StreamHeader::parse(job.input).precision;
  } catch (const std::exception& e) {
    result.outcome = Outcome::Failed;
    result.error =
        failure + " (header unusable for salvage: " + e.what() + ")";
    return;
  }
  try {
    if (precision == Precision::F32) {
      fillSalvaged(stream.decompressResilient<f32>(job.input), result,
                   failure);
    } else {
      fillSalvaged(stream.decompressResilient<f64>(job.input), result,
                   failure);
    }
  } catch (const std::exception& e) {
    // decompressResilient never throws on corrupt input; this catches
    // environmental failures (allocation) so the worker thread survives.
    result = JobResult{};
    result.outcome = Outcome::Failed;
    result.error = failure + " (salvage failed: " + e.what() + ")";
    return;
  }
  if (result.outcome == Outcome::Degraded) {
    statDegraded_.fetch_add(1, std::memory_order_relaxed);
    instruments_.degraded->add(1);
    if (telemetry::TraceSession* trace = telemetry::activeTrace()) {
      trace->instant(
          "service.degraded",
          {telemetry::TraceArg::str("tenant", job.tenant),
           telemetry::TraceArg::num("job_id", static_cast<f64>(job.id)),
           telemetry::TraceArg::num(
               "bad_blocks",
               static_cast<f64>(result.decodeReport.badBlocks))});
    }
  }
}

void CompressionService::finishJob(detail::Job& job, JobResult result,
                                   bool abandoned) {
  result.attempts = job.attempt.load(std::memory_order_relaxed);
  result.recoveries = job.recoveries.load(std::memory_order_relaxed);
  const u64 bytesIn = job.input.size();
  const u64 bytesOut = result.kind == JobKind::Compress
                           ? result.compressed.stream.size()
                           : result.decompressed.size();
  const Outcome outcome = result.outcome;
  const bool ok = result.ok;
  const f64 waitUs = result.waitUs;
  const f64 serviceUs = result.serviceUs;

  // Exactly-once commit: when a watchdog-recovered twin (or a racing
  // cancel) already published, this execution's result is discarded and
  // nothing — counters, breaker, ledger — is recorded twice. Waiters are
  // only woken at the end, after all of that accounting, so a client
  // returning from Ticket::wait() observes the breaker state and quota
  // this outcome implies.
  if (!job.commit(std::move(result))) return;
  job.phase.store(detail::Phase::Done, std::memory_order_release);
  if (config_.watchdog.enabled) watchdogForget(job.id);
  // Durable intake: retire the Accept record (with the full Outcome
  // taxonomy) before waking waiters, so an observed completion is never
  // replayed by a restart.
  if (job.durableResolve) job.durableResolve(job.id, outcome);

  if (abandoned) {
    instruments_.abandoned->add(1);
    statAbandoned_.fetch_add(1, std::memory_order_relaxed);
  } else if (ok) {
    instruments_.completed->add(1);
    statCompleted_.fetch_add(1, std::memory_order_relaxed);
  } else if (outcome != Outcome::Degraded) {
    instruments_.failed->add(1);
    statFailed_.fetch_add(1, std::memory_order_relaxed);
  }
  if (!abandoned) {
    instruments_.waitUs->record(static_cast<u64>(waitUs));
    instruments_.serviceUs->record(static_cast<u64>(serviceUs));
    // Abandoned/canceled jobs never ran: they say nothing about the
    // tenant's payload health, so they leave the breaker alone.
    recordBreakerOutcome(job.tenant, ok);
  }

  telemetry::MetricsRegistry& reg = telemetry::registry();
  if (reg.enabled()) {
    const std::string prefix = "service.tenant." + job.tenant;
    reg.counter(prefix + ".jobs").add(1);
    reg.counter(prefix + ".bytes_in").add(bytesIn);
    reg.counter(prefix + ".bytes_out").add(bytesOut);
  }
  if (telemetry::TraceSession* trace = telemetry::activeTrace()) {
    trace->complete(
        "service.job", serviceUs,
        {telemetry::TraceArg::str("tenant", job.tenant),
         telemetry::TraceArg::str("kind", toString(job.kind)),
         telemetry::TraceArg::str("outcome", toString(outcome)),
         telemetry::TraceArg::num("job_id", static_cast<f64>(job.id)),
         telemetry::TraceArg::num("wait_us", waitUs),
         telemetry::TraceArg::num("ok", ok ? 1.0 : 0.0)});
  }

  ledger_->release(job.tenant, bytesIn);
  job.notifyWaiters();
}

void CompressionService::armChaosFault(core::CompressorStream& stream,
                                       const ChaosFault& fault) {
  stream.launcher().clearFaultPlan();
  if (fault.mode == ChaosFault::Mode::None) return;
  gpusim::FaultPlan plan;
  plan.seed = fault.seed;
  // Fire on the operation's first launch: the next index this stream's
  // launcher will hand out.
  plan.triggerLaunch = stream.launcher().launchCount();
  switch (fault.mode) {
    case ChaosFault::Mode::BitFlip:
      plan.bitFlips = std::max<u32>(1, fault.bitFlips);
      break;
    case ChaosFault::Mode::Abort:
      plan.abortBlock = 0;
      break;
    case ChaosFault::Mode::Stall:
      plan.stallTicks = std::max<u32>(1, fault.stallTicks);
      break;
    case ChaosFault::Mode::Wedge:
      plan.wedgeTicks = std::max<u32>(1, fault.wedgeTicks);
      break;
    case ChaosFault::Mode::ArenaExhaust:
      plan.arenaBudgetBytes = std::max<u64>(1, fault.arenaBudgetBytes);
      break;
    default:
      return;
  }
  stream.launcher().setFaultPlan(plan);
  statChaosInjected_.fetch_add(1, std::memory_order_relaxed);
  instruments_.chaosInjected->add(1);
  if (telemetry::TraceSession* trace = telemetry::activeTrace()) {
    trace->instant("service.chaos.inject",
                   {telemetry::TraceArg::str("mode",
                                             chaosModeName(fault.mode))});
  }
}

void CompressionService::requeue(std::shared_ptr<detail::Job> job) {
  detail::Phase expected = detail::Phase::Running;
  if (!job->phase.compare_exchange_strong(expected,
                                          detail::Phase::Queued)) {
    // The watchdog already requeued this job (its twin owns the retry),
    // or the twin finished and published — either way nothing to do.
    return;
  }
  requeueOrAbandon(std::move(job));
}

void CompressionService::requeueOrAbandon(
    std::shared_ptr<detail::Job> job) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (!requeuesAbandon_) {
      lanes_.push(std::move(job));
      workCv_.notify_one();
      return;
    }
  }
  // The shutdown drain already swept the lanes; a late requeue must not
  // re-enter them (it would either hang past the deadline contract or
  // silently re-run abandoned work). Resolve it like the drain would
  // have — commit() still arbitrates against a concurrently-finishing
  // twin, so nothing double-publishes.
  JobResult r;
  r.outcome = Outcome::Abandoned;
  r.error = "abandoned: requeued after the shutdown drain";
  r.tenant = job->tenant;
  r.kind = job->kind;
  r.jobId = job->id;
  finishJob(*job, std::move(r), /*abandoned=*/true);
}

void CompressionService::backoffSleep(u64 jobId, u32 attempt) const {
  const u64 base = config_.retry.backoffBaseMillis;
  if (base == 0) return;
  const u32 shift = std::min<u32>(attempt > 0 ? attempt - 1 : 0, 20);
  const u64 capped = std::min<u64>(base << shift,
                                   std::max<u64>(1, config_.retry.backoffCapMillis));
  // Full jitter, deterministic per (seed, job, attempt): decorrelates
  // retry storms without sacrificing reproducibility.
  Rng rng(SplitMix64(config_.retry.jitterSeed ^
                     (jobId * 0x9E3779B97F4A7C15ull) ^ attempt)
              .next());
  const u64 millis = 1 + rng.uniformInt(capped);
  std::this_thread::sleep_for(std::chrono::milliseconds(millis));
}

std::chrono::milliseconds CompressionService::jobTimeout(
    const detail::Job& job, const gpusim::DeviceSpec& device) const {
  // Modelled execution estimate: launch overhead plus ~3 sweeps of the
  // input over modelled DRAM bandwidth (read + quantize/write + pack).
  // The multiplier absorbs the host-simulation slowdown. The cluster's
  // placement/steal heuristics rank shards with the same estimate.
  const f64 modelledSeconds =
      gpusim::modelledPassSeconds(job.input.size(), device);
  const f64 millis =
      std::max(static_cast<f64>(config_.watchdog.minTimeoutMillis),
               modelledSeconds * 1e3 * config_.watchdog.modelledMultiplier);
  return std::chrono::milliseconds(static_cast<i64>(millis) + 1);
}

void CompressionService::watchdogWatch(
    const std::shared_ptr<detail::Job>& job,
    std::chrono::steady_clock::time_point dispatched,
    const gpusim::DeviceSpec& device) {
  std::lock_guard<std::mutex> lock(watchdogMutex_);
  inFlight_[job->id] = InFlight{job, dispatched + jobTimeout(*job, device)};
}

void CompressionService::watchdogForget(u64 jobId) {
  std::lock_guard<std::mutex> lock(watchdogMutex_);
  inFlight_.erase(jobId);
}

void CompressionService::watchdogLoop() {
  for (;;) {
    std::vector<std::shared_ptr<detail::Job>> expired;
    {
      std::unique_lock<std::mutex> lock(watchdogMutex_);
      watchdogCv_.wait_for(
          lock, std::chrono::milliseconds(config_.watchdog.pollMillis));
      if (watchdogStop_) return;
      // Stand down once shutdown begins: the drain already guarantees
      // every in-flight execution completes, and spawning twins during
      // the drain would race it.
      if (!accepting_.load(std::memory_order_acquire)) continue;
      const auto now = std::chrono::steady_clock::now();
      for (auto it = inFlight_.begin(); it != inFlight_.end();) {
        detail::Job& job = *it->second.job;
        if (job.phase.load(std::memory_order_acquire) !=
            detail::Phase::Running) {
          it = inFlight_.erase(it);  // finished or requeued; stale entry
          continue;
        }
        if (now >= it->second.deadline &&
            job.recoveries.load(std::memory_order_relaxed) <
                config_.watchdog.maxRecoveries) {
          expired.push_back(std::move(it->second.job));
          it = inFlight_.erase(it);
          continue;
        }
        ++it;
      }
    }
    for (std::shared_ptr<detail::Job>& job : expired) {
      // Requeue the hung job; whichever worker frees up first (usually a
      // different one — the hung worker is busy by definition) relaunches
      // it, and Job::commit arbitrates between the two executions.
      detail::Phase expected = detail::Phase::Running;
      if (!job->phase.compare_exchange_strong(expected,
                                              detail::Phase::Queued)) {
        continue;  // finished in the meantime
      }
      job->recoveries.fetch_add(1, std::memory_order_relaxed);
      statWatchdogRecoveries_.fetch_add(1, std::memory_order_relaxed);
      instruments_.watchdogRecoveries->add(1);
      if (telemetry::TraceSession* trace = telemetry::activeTrace()) {
        trace->instant(
            "service.watchdog.recovery",
            {telemetry::TraceArg::str("tenant", job->tenant),
             telemetry::TraceArg::num("job_id",
                                      static_cast<f64>(job->id))});
      }
      requeueOrAbandon(std::move(job));
    }
  }
}

bool CompressionService::breakerAdmits(const std::string& tenant,
                                       std::string* detail) {
  if (config_.breaker.threshold == 0) return true;
  std::lock_guard<std::mutex> lock(breakerMutex_);
  auto it = breakers_.find(tenant);
  if (it == breakers_.end()) return true;
  Breaker& breaker = it->second;
  const auto now = std::chrono::steady_clock::now();
  const auto cooldown =
      std::chrono::milliseconds(config_.breaker.cooldownMillis);
  if (breaker.state == BreakerState::Open) {
    if (now < breaker.reopenAt) {
      *detail = "circuit open for tenant '" + tenant +
                "' (consecutive failures reached " +
                std::to_string(config_.breaker.threshold) + ")";
      return false;
    }
    setBreakerState(tenant, breaker, BreakerState::HalfOpen);
    breaker.probeSuccesses = 0;
    breaker.nextProbeAt = now;
  }
  if (breaker.state == BreakerState::HalfOpen) {
    if (now < breaker.nextProbeAt) {
      *detail = "circuit half-open for tenant '" + tenant +
                "': probe window already used";
      return false;
    }
    breaker.nextProbeAt = now + cooldown;  // one probe per window
  }
  return true;
}

void CompressionService::recordBreakerOutcome(const std::string& tenant,
                                              bool success) {
  if (config_.breaker.threshold == 0) return;
  std::lock_guard<std::mutex> lock(breakerMutex_);
  Breaker& breaker = breakers_[tenant];
  const auto now = std::chrono::steady_clock::now();
  const auto cooldown =
      std::chrono::milliseconds(config_.breaker.cooldownMillis);
  if (success) {
    breaker.consecutiveFailures = 0;
    if (breaker.state == BreakerState::HalfOpen &&
        ++breaker.probeSuccesses >= config_.breaker.probeSuccesses) {
      setBreakerState(tenant, breaker, BreakerState::Closed);
    }
    // An Open breaker seeing a success is a straggler from before the
    // trip; it stays open until the cooldown admits a real probe.
    return;
  }
  if (breaker.state == BreakerState::HalfOpen) {
    // Failed probe: straight back to Open for another cooldown.
    setBreakerState(tenant, breaker, BreakerState::Open);
    breaker.reopenAt = now + cooldown;
    breaker.consecutiveFailures = config_.breaker.threshold;
    statBreakerOpens_.fetch_add(1, std::memory_order_relaxed);
    instruments_.breakerOpens->add(1);
  } else if (breaker.state == BreakerState::Closed &&
             ++breaker.consecutiveFailures >= config_.breaker.threshold) {
    setBreakerState(tenant, breaker, BreakerState::Open);
    breaker.reopenAt = now + cooldown;
    statBreakerOpens_.fetch_add(1, std::memory_order_relaxed);
    instruments_.breakerOpens->add(1);
  }
  // Failures reported while Open are stragglers; they extend nothing.
}

void CompressionService::setBreakerState(const std::string& tenant,
                                         Breaker& breaker,
                                         BreakerState state) {
  breaker.state = state;
  telemetry::MetricsRegistry& reg = telemetry::registry();
  if (reg.enabled()) {
    reg.gauge("service.breaker." + tenant + ".state")
        .set(static_cast<f64>(static_cast<u8>(state)));
  }
  if (telemetry::TraceSession* trace = telemetry::activeTrace()) {
    trace->instant("service.breaker.transition",
                   {telemetry::TraceArg::str("tenant", tenant),
                    telemetry::TraceArg::str("state", toString(state))});
  }
}

BreakerState CompressionService::breakerState(
    const std::string& tenant) const {
  std::lock_guard<std::mutex> lock(breakerMutex_);
  auto it = breakers_.find(tenant);
  return it == breakers_.end() ? BreakerState::Closed : it->second.state;
}

}  // namespace cuszp2::service
