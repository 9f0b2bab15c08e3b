#include "runtime/setup_cache.h"

#include <utility>

#include "common/bytes.h"
#include "obs/scope.h"
#include "runtime/setup_store.h"

namespace meecc::runtime {

void SetupCache::attach_store(SetupStore* store) {
  const std::lock_guard<std::mutex> lock(mutex_);
  store_ = store;
}

std::shared_ptr<const void> SetupCache::get_or_build(const std::string& key,
                                                     const Builder& builder,
                                                     const Encoder& encoder,
                                                     const Decoder& decoder) {
  std::promise<std::shared_ptr<const void>> promise;
  std::shared_future<std::shared_ptr<const void>> future;
  bool build_here = false;
  SetupStore* store = nullptr;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    const auto it = entries_.find(key);
    if (it == entries_.end()) {
      future = promise.get_future().share();
      entries_.emplace(key, future);
      build_here = true;
      store = store_;
    } else {
      future = it->second;
      ++memory_hits_;
    }
  }
  if (build_here) {
    try {
      // Shield scope: the setup machine's counters and traces belong to no
      // single trial — and neither do a disk load's decode side effects.
      obs::TrialScope shield(nullptr);

      std::shared_ptr<const void> state;
      if (store != nullptr && decoder != nullptr) {
        SetupStore::LoadResult loaded = store->load(key);
        if (loaded.status == SetupStore::Lookup::kHit) {
          try {
            state = decoder(*loaded.payload);
          } catch (const io::DecodeError& e) {
            // A frame that passed every check but decodes wrong was written
            // by incompatible code; fall back to a fresh build.
            state = nullptr;
            const std::lock_guard<std::mutex> lock(mutex_);
            ++disk_rejects_["decode-error"];
            (void)e;
          }
          if (state != nullptr) {
            const std::lock_guard<std::mutex> lock(mutex_);
            ++disk_hits_;
          }
        } else if (loaded.status != SetupStore::Lookup::kAbsent) {
          const std::lock_guard<std::mutex> lock(mutex_);
          ++disk_rejects_[std::string(to_string(loaded.status))];
        }
      }
      if (state == nullptr) {
        state = builder();
        {
          const std::lock_guard<std::mutex> lock(mutex_);
          ++builds_;
        }
        if (store != nullptr && encoder != nullptr && state != nullptr)
          store->store(key, encoder(state.get()));  // best-effort
      }
      promise.set_value(std::move(state));
    } catch (...) {
      promise.set_exception(std::current_exception());
    }
  }
  return future.get();  // rethrows a builder failure to every sharing trial
}

void SetupCache::release(const std::string& key) {
  std::shared_future<std::shared_ptr<const void>> dropped;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    const auto it = entries_.find(key);
    if (it == entries_.end()) return;
    dropped = std::move(it->second);
    entries_.erase(it);
  }
  // `dropped` goes out of scope here, off the lock: destroying the last
  // reference to a warm state frees megabytes of snapshot.
}

std::size_t SetupCache::size() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return entries_.size();
}

std::uint64_t SetupCache::memory_hits() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return memory_hits_;
}

std::uint64_t SetupCache::disk_hits() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return disk_hits_;
}

std::uint64_t SetupCache::builds() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return builds_;
}

std::map<std::string, std::uint64_t> SetupCache::disk_rejects() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return disk_rejects_;
}

namespace {
thread_local TrialContext* g_current_context = nullptr;
}  // namespace

TrialContext::TrialContext(SetupCache* cache, BedPool* bed_pool)
    : previous_(g_current_context), cache_(cache), bed_pool_(bed_pool) {
  g_current_context = this;
}

TrialContext::~TrialContext() { g_current_context = previous_; }

TrialContext* TrialContext::current() { return g_current_context; }

}  // namespace meecc::runtime
