#include "src/core/engine.hpp"

#include <algorithm>

#include "src/cluster/cluster_engine.hpp"
#include "src/core/parallel_engine.hpp"
#include "src/core/sim_engine.hpp"
#include "src/util/assert.hpp"

namespace dici::core {

// --- Index ----------------------------------------------------------------

Index::Index(std::span<const key_t> index_keys) : Index(index_keys.size()) {
  copy_sorted(index_keys, keys_.get());
}

Index::Index(std::size_t size) : size_(size), keys_(allocate_keys(size)) {
  DICI_CHECK_MSG(size_ > 0, "an index needs at least one key");
}

std::unique_ptr<Client> Index::connect() const {
  // shared_from_this() also enforces the ownership contract: an Index
  // not held by shared_ptr (never possible via Engine::build) throws.
  return do_connect(shared_from_this());
}

// --- Client ---------------------------------------------------------------

Client::Client(std::shared_ptr<const Index> index)
    : index_(std::move(index)) {
  DICI_CHECK(index_ != nullptr);
}

void Client::rebind_index(std::shared_ptr<const Index> index) {
  DICI_CHECK(index != nullptr);
  index_ = std::move(index);
}

Client::~Client() {
  // Drain-on-destroy: tickets still in flight reference caller buffers
  // (out_ranks) and shared machinery, so block until they complete.
  // Completions are self-contained, safe to await from the base dtor.
  // A completion may THROW (the cluster backend's NodeFailureError) —
  // during this destructor-context drain the failure is swallowed: the
  // await still returned, so the buffers are safe, and the caller who
  // wanted the error should have wait()ed or drain()ed before dropping
  // the client.
  for (Entry& entry : entries_) {
    if (!entry.completion) continue;
    try {
      entry.completion->await();
    } catch (...) {
    }
  }
}

Ticket Client::submit(std::span<const key_t> queries,
                      std::vector<rank_t>* out_ranks) {
  return submit(queries, out_ranks, SubmitOptions{});
}

Ticket Client::submit(std::span<const key_t> queries,
                      std::vector<rank_t>* out_ranks,
                      const SubmitOptions& options) {
  DICI_CHECK_FMT(
      options.queued_ns.empty() || options.queued_ns.size() == queries.size(),
      "submit(): queued_ns has %zu entries for %zu queries — pass "
      "one pre-submit wait per query, or none",
      options.queued_ns.size(), queries.size());
  Entry entry;
  entry.completion = do_submit(queries, out_ranks, options);
  entries_.push_back(std::move(entry));
  ++in_flight_;
  return Ticket(this, next_id_++);
}

bool Client::ready(const Ticket& ticket) const {
  DICI_CHECK_MSG(ticket.owner_ == this,
                 "Ticket belongs to a different Client (or was "
                 "default-constructed, never submit()ed)");
  DICI_CHECK(ticket.id_ < next_id_);
  DICI_CHECK_FMT(
      ticket.id_ >= base_id_ &&
          entries_[ticket.id_ - base_id_].completion != nullptr,
      "Ticket %llu was already waited — each ticket is waited exactly "
      "once; capture the RunReport from the first wait",
      static_cast<unsigned long long>(ticket.id_));
  return entries_[ticket.id_ - base_id_].completion->ready();
}

RunReport Client::wait(const Ticket& ticket) {
  DICI_CHECK_MSG(ticket.owner_ == this,
                 "Ticket belongs to a different Client (or was "
                 "default-constructed, never submit()ed)");
  DICI_CHECK(ticket.id_ < next_id_);
  DICI_CHECK_FMT(
      ticket.id_ >= base_id_ &&
          entries_[ticket.id_ - base_id_].completion != nullptr,
      "Ticket %llu was already waited — each ticket is waited exactly "
      "once; capture the RunReport from the first wait",
      static_cast<unsigned long long>(ticket.id_));
  Entry& entry = entries_[ticket.id_ - base_id_];
  RunReport report = entry.completion->await();
  entry.completion.reset();
  --in_flight_;
  // Retire the settled prefix so the ledger stays O(in-flight).
  while (!entries_.empty() && entries_.front().completion == nullptr) {
    entries_.pop_front();
    ++base_id_;
  }
  // First batch assigns (merge DICI_CHECKs method agreement, which a
  // default-constructed total_ cannot satisfy).
  if (batches_ == 0) {
    total_ = report;
  } else {
    total_.merge(report);
  }
  ++batches_;
  return report;
}

const RunReport& Client::drain() {
  // The front entry is always unsettled while anything is in flight
  // (settled entries are retired from the front), so draining is just
  // waiting the front until the ledger empties.
  while (in_flight_ > 0) wait(Ticket(this, base_id_));
  return total_;
}

RunReport Engine::run(std::span<const key_t> index_keys,
                      std::span<const key_t> queries,
                      std::vector<rank_t>* out_ranks) const {
  // v2 directly (not via the deprecated open()): one index, one client,
  // one waited ticket.
  const auto client = build(index_keys)->connect();
  return client->wait(client->submit(queries, out_ranks));
}

// --- Config validation ----------------------------------------------------

void validate(const ExperimentConfig& config) {
  config.machine.validate();
  DICI_CHECK_FMT(config.num_nodes >= 2,
                 "ExperimentConfig::num_nodes = %u: a cluster needs at least "
                 "two nodes",
                 config.num_nodes);
  DICI_CHECK_FMT(config.batch_bytes >= sizeof(key_t),
                 "ExperimentConfig::batch_bytes = %llu: a dispatch round must "
                 "hold at least one %zu-byte key",
                 static_cast<unsigned long long>(config.batch_bytes),
                 sizeof(key_t));
  DICI_CHECK_FMT(
      config.buffer_fraction > 0.0 && config.buffer_fraction <= 1.0,
      "ExperimentConfig::buffer_fraction = %g: must be in (0, 1]",
      config.buffer_fraction);
  DICI_CHECK_FMT(search_kernel_valid(config.kernel),
                 "ExperimentConfig::kernel = %d: not a SearchKernel value",
                 static_cast<int>(config.kernel));
  DICI_CHECK_FMT(placement_valid(config.placement),
                 "ExperimentConfig::placement = %d: not a Placement value",
                 static_cast<int>(config.placement));
  DICI_CHECK_FMT(config.max_delta_keys >= 1,
                 "ExperimentConfig::max_delta_keys = %zu: the write path "
                 "needs room for at least one pending delta entry",
                 config.max_delta_keys);
  DICI_CHECK_FMT(config.rebuild_trigger_fraction > 0.0 &&
                     config.rebuild_trigger_fraction <= 1.0,
                 "ExperimentConfig::rebuild_trigger_fraction = %g: must be "
                 "in (0, 1]",
                 config.rebuild_trigger_fraction);
  DICI_CHECK_FMT(config.writer_threads >= 1 && config.writer_threads <= 256,
                 "ExperimentConfig::writer_threads = %u: the background fold "
                 "splits across 1..256 threads",
                 config.writer_threads);
  DICI_CHECK_FMT(config.heartbeat_interval_ms >= 1,
                 "ExperimentConfig::heartbeat_interval_ms = %u: the cluster "
                 "failure detector needs a nonzero heartbeat cadence",
                 config.heartbeat_interval_ms);
  DICI_CHECK_FMT(
      config.heartbeat_timeout_ms >= 2 * config.heartbeat_interval_ms,
      "ExperimentConfig::heartbeat_timeout_ms = %u with "
      "heartbeat_interval_ms = %u: the timeout must be at least twice the "
      "interval, or one delayed beat kills a healthy node",
      config.heartbeat_timeout_ms, config.heartbeat_interval_ms);
  check_retry_knobs("ExperimentConfig", config.max_retries,
                    config.retry_backoff_us);
  if (is_distributed(config.method)) {
    DICI_CHECK_FMT(config.num_masters >= 1,
                   "ExperimentConfig::num_masters = %u: Method C needs at "
                   "least one master",
                   config.num_masters);
    DICI_CHECK_FMT(config.num_nodes > config.num_masters,
                   "ExperimentConfig::num_nodes = %u with num_masters = %u: "
                   "Method C needs at least one slave",
                   config.num_nodes, config.num_masters);
  }
}

void check_retry_knobs(const char* owner, std::uint32_t max_retries,
                       std::uint32_t retry_backoff_us) {
  DICI_CHECK_FMT(max_retries <= kMaxRetries,
                 "%s::max_retries = %u: beyond %u attempts the capped "
                 "backoff makes retries pure polling — raise "
                 "retry_backoff_us instead",
                 owner, max_retries, kMaxRetries);
  DICI_CHECK_FMT(retry_backoff_us >= kMinRetryBackoffUs &&
                     retry_backoff_us <= kMaxRetryBackoffUs,
                 "%s::retry_backoff_us = %u: must be in [%u, %u] — below "
                 "the floor the retry sweeper outpaces any real transport, "
                 "above the cap a retry outlives the heartbeat verdict",
                 owner, retry_backoff_us, kMinRetryBackoffUs,
                 kMaxRetryBackoffUs);
}

void check_native_supported(const ExperimentConfig& config) {
  DICI_CHECK_FMT(config.flush_policy == FlushPolicy::kMasterRound,
                 "ExperimentConfig::flush_policy = %s: native backends "
                 "implement master-round flushing only",
                 flush_policy_name(config.flush_policy));
}

// --- Factory --------------------------------------------------------------

const char* backend_name(Backend backend) {
  switch (backend) {
    case Backend::kSim: return "sim";
    case Backend::kParallelNative: return "parallel-native";
    case Backend::kCluster: return "cluster";
  }
  return "?";
}

Backend backend_from_flag(const std::string& text, const char* field) {
  const auto found = std::find_if(
      kAllBackends.begin(), kAllBackends.end(),
      [&](Backend backend) { return text == backend_name(backend); });
  DICI_CHECK_FMT(found != kAllBackends.end(),
                 "%s = \"%s\" is not a backend (want %s)", field,
                 text.c_str(), kBackendChoices);
  return *found;
}

std::unique_ptr<Engine> make_engine(Backend backend,
                                    const ExperimentConfig& config) {
  switch (backend) {
    case Backend::kSim: return std::make_unique<SimCluster>(config);
    case Backend::kParallelNative:
      return std::make_unique<ParallelNativeEngine>(config);
    case Backend::kCluster:
      return std::make_unique<cluster::ClusterEngine>(config);
  }
  DICI_CHECK_MSG(false, "unknown backend");
  return nullptr;
}

}  // namespace dici::core
