// Clang thread-safety annotations plus annotated mutex/condvar wrappers
// over the std primitives: the compile-time half of the repo's
// concurrency story. Under Clang with -Wthread-safety (the
// VSIM_STATIC_ANALYSIS=ON build mode, enforced by
// tools/check_static.sh), every GUARDED_BY member access outside its
// mutex and every REQUIRES violation is a hard compile error; under
// other compilers the macros expand to nothing and the wrappers are
// zero-cost shims over std::mutex / std::condition_variable.
//
// Conventions for new code (see docs/ARCHITECTURE.md "Static analysis
// & lock discipline"):
//   - Protect shared members with a vsim::Mutex and tag each one
//     GUARDED_BY(mu_). Members that are immutable after construction
//     (or confined to one thread) get a comment saying so instead.
//   - Lock with vsim::MutexLock (scoped) in function bodies; annotate
//     private helpers that expect the lock held with REQUIRES(mu_).
//   - Public methods that take a lock internally are annotated
//     EXCLUDES(mu_) so callers cannot deadlock by re-entering.
//   - Condition waits use CondVar::Wait(&mu_) inside an explicit
//     `while (!predicate)` loop -- the analysis can then see that the
//     predicate reads happen under the lock (lambda predicates passed
//     into std::condition_variable::wait cannot be annotated).
#ifndef VSIM_COMMON_THREAD_ANNOTATIONS_H_
#define VSIM_COMMON_THREAD_ANNOTATIONS_H_

#include <chrono>
#include <condition_variable>
#include <mutex>
#include <shared_mutex>

#include "vsim/common/deadlock_detector.h"

// -- Attribute macros -------------------------------------------------
// Names and semantics follow the Clang thread-safety-analysis docs
// (and the de-facto abseil spelling). Each expands to the underlying
// __attribute__ only when the compiler supports it.
#if defined(__clang__)
#define VSIM_THREAD_ANNOTATION__(x) __attribute__((x))
#else
#define VSIM_THREAD_ANNOTATION__(x)
#endif

// On a data member: may only be read or written while holding `x`.
#define GUARDED_BY(x) VSIM_THREAD_ANNOTATION__(guarded_by(x))
// On a pointer member: the *pointee* is protected by `x`.
#define PT_GUARDED_BY(x) VSIM_THREAD_ANNOTATION__(pt_guarded_by(x))
// On a function: the caller must hold the listed capabilities.
#define REQUIRES(...) \
  VSIM_THREAD_ANNOTATION__(requires_capability(__VA_ARGS__))
#define REQUIRES_SHARED(...) \
  VSIM_THREAD_ANNOTATION__(requires_shared_capability(__VA_ARGS__))
// On a function: the caller must NOT hold the listed capabilities
// (the function acquires them itself; prevents self-deadlock).
#define EXCLUDES(...) VSIM_THREAD_ANNOTATION__(locks_excluded(__VA_ARGS__))
// On a function: acquires / releases the listed capabilities.
#define ACQUIRE(...) \
  VSIM_THREAD_ANNOTATION__(acquire_capability(__VA_ARGS__))
#define RELEASE(...) \
  VSIM_THREAD_ANNOTATION__(release_capability(__VA_ARGS__))
#define TRY_ACQUIRE(...) \
  VSIM_THREAD_ANNOTATION__(try_acquire_capability(__VA_ARGS__))
// Shared (reader) forms: many readers may hold the capability at once;
// writers need the exclusive forms above. Guarded members may be READ
// under a shared hold but only WRITTEN under an exclusive one.
#define ACQUIRE_SHARED(...) \
  VSIM_THREAD_ANNOTATION__(acquire_shared_capability(__VA_ARGS__))
#define RELEASE_SHARED(...) \
  VSIM_THREAD_ANNOTATION__(release_shared_capability(__VA_ARGS__))
// On a class: instances are a capability (a lock).
#define CAPABILITY(x) VSIM_THREAD_ANNOTATION__(capability(x))
// On a class: RAII object that holds a capability for its lifetime.
#define SCOPED_CAPABILITY VSIM_THREAD_ANNOTATION__(scoped_lockable)
// On a function: returns a reference to the capability guarding it.
#define RETURN_CAPABILITY(x) VSIM_THREAD_ANNOTATION__(lock_returned(x))
// Escape hatch; every use needs a comment justifying it.
#define NO_THREAD_SAFETY_ANALYSIS \
  VSIM_THREAD_ANNOTATION__(no_thread_safety_analysis)

namespace vsim {

// Annotated std::mutex. Lock discipline on members tagged
// GUARDED_BY(mu_) is compiler-checked under VSIM_STATIC_ANALYSIS=ON.
// Also satisfies Lockable (lowercase aliases), so std::scoped_lock and
// friends still work where a scoped MutexLock does not fit.
//
// The optional `lock_class` names the mutex's node in the runtime
// lock-order graph (deadlock_detector.h, VSIM_DEADLOCK_DETECT=1): all
// instances sharing a class collapse onto one node, so an ordering
// observed between two classes binds every instance pair. Convention:
// "<module>.<role>", e.g. "cache.shard", "net.conn". The string must
// outlive the mutex (use literals). Unnamed mutexes still participate,
// keyed per object.
class CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  explicit Mutex(const char* lock_class) : class_(lock_class) {}
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock() ACQUIRE() {
    deadlock::NoteAcquire(this, class_);
    mu_.lock();
  }
  void Unlock() RELEASE() {
    mu_.unlock();
    deadlock::NoteRelease(this);
  }
  bool TryLock() TRY_ACQUIRE(true) {
    const bool ok = mu_.try_lock();
    if (ok) deadlock::NoteTryAcquire(this, class_);
    return ok;
  }

  // Lockable aliases.
  void lock() ACQUIRE() { Lock(); }
  void unlock() RELEASE() { Unlock(); }
  bool try_lock() TRY_ACQUIRE(true) { return TryLock(); }

 private:
  friend class CondVar;
  std::mutex mu_;
  const char* class_ = nullptr;
};

// Scoped lock over a vsim::Mutex. The analysis treats the guarded
// members as accessible exactly while a MutexLock on their mutex is in
// scope.
class SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex* mu) ACQUIRE(mu) : mu_(mu) { mu_->Lock(); }
  ~MutexLock() RELEASE() { mu_->Unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex* const mu_;
};

// Annotated std::shared_mutex: many concurrent readers or one writer.
// The buffer-pool shards use this for their latch-per-partition scheme
// (page-table hits take the shared side, misses and evictions the
// exclusive side -- see src/vsim/cache/page_cache.h). Guarded members
// may be read under ReaderMutexLock and mutated only under
// WriterMutexLock; Clang checks both directions under
// VSIM_STATIC_ANALYSIS=ON.
class CAPABILITY("shared_mutex") SharedMutex {
 public:
  SharedMutex() = default;
  explicit SharedMutex(const char* lock_class) : class_(lock_class) {}
  SharedMutex(const SharedMutex&) = delete;
  SharedMutex& operator=(const SharedMutex&) = delete;

  // Shared and exclusive acquisitions feed the same lock-order node:
  // reader/writer order inversions deadlock just like writer/writer
  // ones (a writer blocks behind the reader that is waiting on the
  // lock the writer holds).
  void Lock() ACQUIRE() {
    deadlock::NoteAcquire(this, class_);
    mu_.lock();
  }
  void Unlock() RELEASE() {
    mu_.unlock();
    deadlock::NoteRelease(this);
  }
  void LockShared() ACQUIRE_SHARED() {
    deadlock::NoteAcquire(this, class_);
    mu_.lock_shared();
  }
  void UnlockShared() RELEASE_SHARED() {
    mu_.unlock_shared();
    deadlock::NoteRelease(this);
  }

 private:
  std::shared_mutex mu_;
  const char* class_ = nullptr;
};

// Scoped exclusive (writer) lock over a SharedMutex.
class SCOPED_CAPABILITY WriterMutexLock {
 public:
  explicit WriterMutexLock(SharedMutex* mu) ACQUIRE(mu) : mu_(mu) {
    mu_->Lock();
  }
  ~WriterMutexLock() RELEASE() { mu_->Unlock(); }

  WriterMutexLock(const WriterMutexLock&) = delete;
  WriterMutexLock& operator=(const WriterMutexLock&) = delete;

 private:
  SharedMutex* const mu_;
};

// Scoped shared (reader) lock over a SharedMutex.
class SCOPED_CAPABILITY ReaderMutexLock {
 public:
  explicit ReaderMutexLock(SharedMutex* mu) ACQUIRE_SHARED(mu) : mu_(mu) {
    mu_->LockShared();
  }
  ~ReaderMutexLock() RELEASE() { mu_->UnlockShared(); }

  ReaderMutexLock(const ReaderMutexLock&) = delete;
  ReaderMutexLock& operator=(const ReaderMutexLock&) = delete;

 private:
  SharedMutex* const mu_;
};

// Condition variable bound to vsim::Mutex. Wait() requires the mutex
// held (checked under Clang); it releases the mutex while blocked and
// reacquires it before returning, like std::condition_variable -- the
// adopt/release dance below keeps the fast std::mutex implementation
// instead of paying condition_variable_any's extra internal lock.
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  // Atomically releases *mu and blocks until notified (spurious wakeups
  // possible: always call inside a `while (!predicate)` loop). The
  // mutex is held again when Wait returns.
  void Wait(Mutex* mu) REQUIRES(mu) {
    std::unique_lock<std::mutex> lock(mu->mu_, std::adopt_lock);
    // The mutex is genuinely released while blocked: keep the
    // deadlock detector's held-lock stack truthful across the wait.
    deadlock::NoteRelease(mu);
    cv_.wait(lock);
    deadlock::NoteAcquire(mu, mu->class_);
    lock.release();  // caller's MutexLock keeps ownership
  }

  // Wait() bounded by `timeout`: returns false when it elapsed without
  // a notification, true otherwise (including spurious wakeups).
  bool WaitFor(Mutex* mu, std::chrono::nanoseconds timeout) REQUIRES(mu) {
    std::unique_lock<std::mutex> lock(mu->mu_, std::adopt_lock);
    deadlock::NoteRelease(mu);
    const bool notified =
        cv_.wait_for(lock, timeout) == std::cv_status::no_timeout;
    deadlock::NoteAcquire(mu, mu->class_);
    lock.release();
    return notified;
  }

  void NotifyOne() { cv_.notify_one(); }
  void NotifyAll() { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
};

}  // namespace vsim

#endif  // VSIM_COMMON_THREAD_ANNOTATIONS_H_
