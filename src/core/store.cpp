#include "src/core/store.hpp"

#include <algorithm>
#include <cmath>

#include "src/util/assert.hpp"

namespace dici::core {

// --- Options ---------------------------------------------------------------

void validate(const StoreOptions& options) {
  DICI_CHECK_FMT(options.max_delta_keys >= 1,
                 "StoreOptions::max_delta_keys = %zu: the write path needs "
                 "room for at least one pending delta entry",
                 options.max_delta_keys);
  DICI_CHECK_FMT(options.rebuild_trigger_fraction > 0.0 &&
                     options.rebuild_trigger_fraction <= 1.0,
                 "StoreOptions::rebuild_trigger_fraction = %g: must be in "
                 "(0, 1]",
                 options.rebuild_trigger_fraction);
  DICI_CHECK_FMT(options.writer_threads >= 1 && options.writer_threads <= 256,
                 "StoreOptions::writer_threads = %u: the background fold "
                 "splits across 1..256 threads",
                 options.writer_threads);
}

StoreOptions store_options_from(const ExperimentConfig& config) {
  validate(config);
  StoreOptions options;
  options.max_delta_keys = config.max_delta_keys;
  options.rebuild_trigger_fraction = config.rebuild_trigger_fraction;
  options.writer_threads = config.writer_threads;
  return options;
}

// --- Generation ------------------------------------------------------------

Generation::Generation(std::shared_ptr<const Index> base,
                       std::shared_ptr<const index::DeltaSnapshot> delta,
                       std::uint64_t epoch)
    : base_(std::move(base)), delta_(std::move(delta)), epoch_(epoch) {
  DICI_CHECK(base_ != nullptr);
  DICI_CHECK(delta_ != nullptr);
}

std::size_t Generation::live_keys() const {
  return static_cast<std::size_t>(
      static_cast<std::int64_t>(base_->size()) + delta_->net());
}

// --- Writer ----------------------------------------------------------------

Writer::~Writer() { store_->flush(); }

std::size_t Writer::insert(std::span<const key_t> keys) {
  return store_->apply_insert(keys);
}

std::size_t Writer::erase(std::span<const key_t> keys) {
  return store_->apply_erase(keys);
}

std::uint64_t Writer::flush() { return store_->flush(); }

// --- The generation-aware read client --------------------------------------

namespace {

/// Pins one ticket's generation (base Index + delta snapshot) and the
/// inner backend client that carries it, for as long as the ticket is
/// in flight. When the last completion of a retired generation settles,
/// the shared_ptr chain unwinds and the old base's machinery (worker
/// fleet, rings) tears down — RCU reclamation by refcount.
class GenCompletion : public Client::Completion {
 public:
  GenCompletion(std::shared_ptr<Client> inner,
                std::shared_ptr<const Generation> gen, Ticket ticket)
      : inner_(std::move(inner)), gen_(std::move(gen)), ticket_(ticket) {}

  bool ready() const override { return inner_->ready(ticket_); }
  RunReport await() override { return inner_->wait(ticket_); }

 private:
  std::shared_ptr<Client> inner_;
  std::shared_ptr<const Generation> gen_;
  Ticket ticket_;
};

/// The Client a Store hands out: each submit loads the current
/// generation (one pointer copy), lazily reconnects its inner backend client
/// when the BASE moved (a flush that only grew the delta reuses the
/// warm connection), and forwards the generation's delta snapshot
/// through SubmitOptions so the backend folds live-set corrections at
/// resolve time. Single-stream like every Client; the inner client is
/// only ever touched from this stream's thread.
class StoreClient final : public Client {
 public:
  StoreClient(std::shared_ptr<const Store> store,
              std::shared_ptr<const Generation> gen)
      : Client(gen->base()),
        store_(std::move(store)),
        gen_(std::move(gen)),
        inner_(gen_->base()->connect()) {}

  const char* backend() const override { return inner_->backend(); }
  const Index& index() const override { return *gen_->base(); }

 private:
  std::unique_ptr<Completion> do_submit(
      std::span<const key_t> queries, std::vector<rank_t>* out_ranks,
      const SubmitOptions& options) override {
    std::shared_ptr<const Generation> gen = store_->current();
    if (gen != gen_) {
      if (gen->base() != gen_->base()) {
        // Generation swap: new submits ride the fresh base; tickets in
        // flight keep the old inner client (and fleet) alive through
        // their GenCompletions until waited.
        inner_ = std::shared_ptr<Client>(gen->base()->connect());
        rebind_index(gen->base());
      }
      gen_ = std::move(gen);
    }
    SubmitOptions forwarded = options;
    forwarded.delta = gen_->delta()->empty() ? nullptr : gen_->delta();
    const Ticket ticket = inner_->submit(queries, out_ranks, forwarded);
    return std::make_unique<GenCompletion>(inner_, gen_, ticket);
  }

  std::shared_ptr<const Store> store_;
  std::shared_ptr<const Generation> gen_;
  std::shared_ptr<Client> inner_;
};

}  // namespace

// --- Store -----------------------------------------------------------------

std::shared_ptr<Store> Store::create(std::unique_ptr<const Engine> engine,
                                     std::span<const key_t> initial_keys,
                                     StoreOptions options) {
  // Not make_shared: the constructor is private (the rebuild thread and
  // enable_shared_from_this demand a heap-owned store).
  return std::shared_ptr<Store>(
      new Store(std::move(engine), initial_keys, options));
}

Store::Store(std::unique_ptr<const Engine> engine,
             std::span<const key_t> initial_keys, StoreOptions options)
    : engine_(std::move(engine)), options_(options) {
  DICI_CHECK(engine_ != nullptr);
  validate(options_);
  trigger_keys_ = std::clamp<std::size_t>(
      static_cast<std::size_t>(
          std::ceil(static_cast<double>(options_.max_delta_keys) *
                    options_.rebuild_trigger_fraction)),
      1, options_.max_delta_keys);
  base_ = engine_->build(initial_keys);
  publish_locked();  // epoch 1: the initial build, delta empty
  rebuild_thread_ = std::thread([this] { rebuild_loop(); });
}

Store::~Store() {
  {
    std::lock_guard lock(mu_);
    stop_ = true;
  }
  rebuild_cv_.notify_all();
  fold_cv_.notify_all();
  rebuild_thread_.join();
}

std::unique_ptr<Client> Store::connect() const {
  return std::make_unique<StoreClient>(shared_from_this(), current());
}

std::unique_ptr<Writer> Store::writer() {
  return std::unique_ptr<Writer>(new Writer(shared_from_this()));
}

std::int64_t Store::live_locked() const {
  return static_cast<std::int64_t>(base_->size()) + delta_.net();
}

void Store::publish_locked() {
  ++epoch_;
  std::shared_ptr<const Generation> next =
      std::make_shared<const Generation>(base_, delta_.snapshot(), epoch_);
  {
    std::lock_guard lock(current_mu_);
    current_.swap(next);
  }
  // `next` now holds the old generation: its last reference may tear
  // down a worker fleet, which happens here, outside current_mu_.
  dirty_ = false;
}

std::size_t Store::delta_keys() const {
  std::lock_guard lock(mu_);
  return delta_.size();
}

void Store::wait_rebuilds_idle() const {
  std::unique_lock lock(mu_);
  fold_cv_.wait(lock, [&] {
    // An all-erased store (live 0) cannot fold — treat it as idle
    // rather than waiting for an insert that may never come.
    return (delta_.size() < trigger_keys_ || live_locked() <= 0) &&
           !rebuild_active_.load(std::memory_order_acquire);
  });
}

std::size_t Store::apply_insert(std::span<const key_t> keys) {
  std::unique_lock lock(mu_);
  std::size_t changed = 0;
  std::size_t i = 0;
  while (i < keys.size()) {
    // Backpressure: never grow the delta past max_delta_keys — block
    // until the background fold drains it. The live==0 escape keeps an
    // emptied-out store insertable (nothing to fold until a key is
    // live, so waiting would deadlock).
    fold_cv_.wait(lock, [&] {
      return stop_ || delta_.size() < options_.max_delta_keys ||
             live_locked() <= 0;
    });
    if (stop_) break;
    const std::size_t room = delta_.size() < options_.max_delta_keys
                                 ? options_.max_delta_keys - delta_.size()
                                 : keys.size() - i;
    const std::size_t n = std::min(room, keys.size() - i);
    const std::size_t c = delta_.insert(keys.subspan(i, n), base_->keys());
    changed += c;
    if (c > 0) dirty_ = true;
    i += n;
    if (delta_.size() >= trigger_keys_ && live_locked() > 0)
      rebuild_cv_.notify_one();
  }
  return changed;
}

std::size_t Store::apply_erase(std::span<const key_t> keys) {
  std::unique_lock lock(mu_);
  std::size_t changed = 0;
  std::size_t i = 0;
  while (i < keys.size()) {
    fold_cv_.wait(lock, [&] {
      return stop_ || delta_.size() < options_.max_delta_keys ||
             live_locked() <= 0;
    });
    if (stop_) break;
    const std::size_t room = delta_.size() < options_.max_delta_keys
                                 ? options_.max_delta_keys - delta_.size()
                                 : keys.size() - i;
    const std::size_t n = std::min(room, keys.size() - i);
    const std::size_t c = delta_.erase(keys.subspan(i, n), base_->keys());
    changed += c;
    if (c > 0) dirty_ = true;
    i += n;
    if (delta_.size() >= trigger_keys_ && live_locked() > 0)
      rebuild_cv_.notify_one();
  }
  return changed;
}

std::uint64_t Store::flush() {
  std::lock_guard lock(mu_);
  if (dirty_) publish_locked();
  return epoch_;
}

void Store::rebuild_loop() {
  std::unique_lock lock(mu_);
  for (;;) {
    rebuild_cv_.wait(lock, [&] {
      return stop_ || (delta_.size() >= trigger_keys_ && live_locked() > 0);
    });
    if (stop_) return;
    rebuild_active_.store(true, std::memory_order_release);
    // Freeze the fold input, then run the heavy part UNLOCKED: writers
    // keep appending to the buffer (validated against the still-current
    // old base) and readers keep resolving against the published
    // generation the whole time.
    const std::shared_ptr<const Index> base = base_;
    const std::shared_ptr<const index::DeltaSnapshot> folded =
        delta_.snapshot();
    lock.unlock();
    const std::vector<key_t> keys =
        index::fold_delta(base->keys(), *folded, options_.writer_threads);
    // The backend's FULL build: for parallel-native that is a fresh
    // partitioner, placement copies first-touched on a fresh pinned
    // fleet, and new dispatch hubs — the new generation is as warm as
    // the first one. live > 0 at snapshot time, so keys is non-empty.
    std::shared_ptr<const Index> fresh = engine_->build(keys);
    lock.lock();
    // Writes that raced the fold survive, re-expressed against the new
    // base (including inverse entries for mid-fold cancellations).
    delta_.rebase(*folded);
    base_ = std::move(fresh);
    publish_locked();
    rebuilds_.fetch_add(1, std::memory_order_acq_rel);
    rebuild_active_.store(false, std::memory_order_release);
    fold_cv_.notify_all();
  }
}

std::shared_ptr<Store> make_store(Backend backend,
                                  const ExperimentConfig& config,
                                  std::span<const key_t> initial_keys) {
  return Store::create(make_engine(backend, config), initial_keys,
                       store_options_from(config));
}

}  // namespace dici::core
