// A thread-safe, insert-only memo table for pure functions.
//
// Lookups take a shared lock; a miss computes the value with no lock
// held, then inserts it under an exclusive lock. When two threads miss on
// the same key at once, both compute and the first insert wins — sound
// only because the memoized function is pure, so both values are equal.
// Entries are never erased and std::map nodes never move, so a returned
// reference stays valid for the memo's lifetime.

#ifndef ROBUSTQP_COMMON_SHARED_MEMO_H_
#define ROBUSTQP_COMMON_SHARED_MEMO_H_

#include <map>
#include <mutex>
#include <shared_mutex>
#include <utility>

namespace robustqp {

template <typename Key, typename Value>
class SharedMemo {
 public:
  /// The value memoized for `key`, computing it with `compute()` (no
  /// arguments, returns a Value) on a miss.
  template <typename Compute>
  const Value& GetOrCompute(const Key& key, Compute&& compute) const {
    {
      std::shared_lock<std::shared_mutex> lock(mu_);
      auto it = map_.find(key);
      if (it != map_.end()) return it->second;
    }
    Value value = compute();
    std::unique_lock<std::shared_mutex> lock(mu_);
    return map_.emplace(key, std::move(value)).first->second;
  }

  size_t size() const {
    std::shared_lock<std::shared_mutex> lock(mu_);
    return map_.size();
  }

 private:
  // Caching is invisible to callers, so lookups are const.
  mutable std::shared_mutex mu_;
  mutable std::map<Key, Value> map_;
};

}  // namespace robustqp

#endif  // ROBUSTQP_COMMON_SHARED_MEMO_H_
