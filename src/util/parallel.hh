/**
 * @file
 * Reusable parallel-execution layer: a fixed-size thread pool with a
 * blocking parallelFor and a sharded map-reduce helper.
 *
 * Design rules that keep results reproducible:
 *  - Work is split into *shards* whose count depends only on the
 *    problem size, never on the worker count, so a given (seed, shard
 *    count) produces bit-identical results for any RTM_THREADS.
 *  - Shard results are reduced in shard-index order on the calling
 *    thread, so floating-point accumulation order is fixed.
 *  - Nested parallelFor calls (from inside a worker) run inline, so
 *    library code may parallelise freely without deadlocking the pool.
 *
 * The worker count comes from the RTM_THREADS environment variable
 * when set (>= 1), otherwise from std::thread::hardware_concurrency().
 * A pool of one thread runs everything inline on the caller.
 */

#ifndef RTM_UTIL_PARALLEL_HH
#define RTM_UTIL_PARALLEL_HH

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace rtm
{

/**
 * Cooperative cancellation flag shared between a controller (a
 * signal handler, a watchdog, a test) and the workers it governs.
 * requestCancel() is one relaxed atomic store, so it is safe to call
 * from an async signal handler; workers poll cancelled() at natural
 * checkpoints and wind down on their own — nothing is ever killed
 * mid-iteration, which is what keeps partial results well-formed
 * enough to checkpoint.
 */
class CancelToken
{
  public:
    void requestCancel()
    {
        cancelled_.store(true, std::memory_order_relaxed);
    }

    bool cancelled() const
    {
        return cancelled_.load(std::memory_order_relaxed);
    }

    /** Re-arm for another run (tests / long-lived daemons). */
    void reset() { cancelled_.store(false, std::memory_order_relaxed); }

  private:
    std::atomic<bool> cancelled_{false};
};

/** Why a StopFlag tripped. */
enum class StopReason
{
    None,      //!< still running
    Cancelled, //!< CancelToken fired (signal / caller request)
    Deadline   //!< the monotonic deadline passed
};

/** Monotonic seconds (steady clock) for deadlines and wall timing. */
double monotonicSeconds();

/**
 * Per-task stop poller combining a shared CancelToken with an
 * absolute monotonic deadline. poll() is cheap and thread-safe (one
 * relaxed load when idle), latches the first reason observed, and
 * keeps answering true afterwards. The latch is the containment
 * contract: a task's result is valid if and only if the task never
 * observed a stop, so a cancel that lands *after* the last poll
 * leaves a perfectly good completed result.
 */
class StopFlag
{
  public:
    StopFlag() = default;

    /**
     * @param cancel   shared token (may be null)
     * @param deadline absolute monotonicSeconds() deadline; 0 = none
     */
    StopFlag(const CancelToken *cancel, double deadline)
        : cancel_(cancel), deadline_(deadline)
    {
    }

    /** True once a stop is observed (and forever after). */
    bool poll()
    {
        if (stopped())
            return true;
        if (cancel_ && cancel_->cancelled()) {
            trip(StopReason::Cancelled);
            return true;
        }
        if (deadline_ > 0.0 && monotonicSeconds() > deadline_) {
            trip(StopReason::Deadline);
            return true;
        }
        return false;
    }

    bool stopped() const
    {
        return reason_.load(std::memory_order_relaxed) !=
               static_cast<int>(StopReason::None);
    }

    StopReason reason() const
    {
        return static_cast<StopReason>(
            reason_.load(std::memory_order_relaxed));
    }

  private:
    void trip(StopReason r)
    {
        int none = static_cast<int>(StopReason::None);
        reason_.compare_exchange_strong(none, static_cast<int>(r),
                                        std::memory_order_relaxed);
    }

    const CancelToken *cancel_ = nullptr;
    double deadline_ = 0.0; //!< absolute monotonicSeconds(); 0 = none
    std::atomic<int> reason_{static_cast<int>(StopReason::None)};
};

/**
 * Route SIGINT/SIGTERM to `token` (pass null to uninstall). The
 * handler performs one atomic store — fully async-signal-safe — so a
 * first ^C triggers a graceful drain-and-checkpoint; a second one
 * force-exits with the conventional 128+signo status for users who
 * will not wait.
 */
void installCancelOnSignals(CancelToken *token);

/**
 * Fixed-size worker pool. Construct directly for a private pool or
 * use ThreadPool::global() for the process-wide shared instance.
 */
class ThreadPool
{
  public:
    /** @param threads worker count (>= 1); 1 means fully inline. */
    explicit ThreadPool(unsigned threads);

    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** Worker count this pool was built with (>= 1). */
    unsigned threads() const { return threads_; }

    /**
     * Run fn(i) for every i in [0, n), blocking until all complete.
     * Iterations are claimed dynamically by the workers, so fn must
     * not rely on any particular execution order or thread identity.
     * Called from inside a pool worker, runs inline (serially).
     */
    void parallelFor(size_t n, const std::function<void(size_t)> &fn);

    /**
     * Cancellation-aware parallelFor: once `cancel` fires, workers
     * stop claiming *new* iterations (iterations already started run
     * to completion — cooperative, never preemptive). Iterations that
     * were never claimed are simply skipped; callers that need an
     * account of skipped work should track it themselves (the
     * experiment engine records them as cancelled outcomes).
     */
    void parallelFor(size_t n, const std::function<void(size_t)> &fn,
                     const CancelToken *cancel);

    /** Process-wide pool, sized by RTM_THREADS / the hardware. */
    static ThreadPool &global();

    /**
     * Rebuild the global pool with an explicit worker count
     * (overriding RTM_THREADS). Intended for tests and benches that
     * compare serial vs parallel execution in one process; not safe
     * while another thread is using the global pool.
     */
    static void setGlobalThreads(unsigned threads);

    /** Worker count RTM_THREADS / the hardware asks for (>= 1). */
    static unsigned configuredThreads();

  private:
    void workerLoop();
    void submit(std::function<void()> task);

    unsigned threads_;
    std::vector<std::thread> workers_;
    std::deque<std::function<void()>> queue_;
    std::mutex mutex_;
    std::condition_variable cv_;
    bool stop_ = false;
};

/** parallelFor on the global pool. */
void parallelFor(size_t n, const std::function<void(size_t)> &fn);

/**
 * Shard count for a workload of n independent items: enough shards to
 * keep any pool busy and to amortise per-shard setup, but a function
 * of n alone so results cannot depend on the worker count.
 */
size_t shardCount(size_t n);

/**
 * Deterministic sharded map-reduce on the global pool.
 *
 * map(shard) produces a Result per shard (in parallel); reduce(acc,
 * partial) folds them together in increasing shard order on the
 * calling thread. Result must be default-constructible.
 */
template <typename Result, typename MapFn, typename ReduceFn>
Result
shardedMapReduce(size_t shards, MapFn map, ReduceFn reduce)
{
    std::vector<Result> partial(shards);
    parallelFor(shards,
                [&](size_t s) { partial[s] = map(s); });
    Result acc{};
    for (size_t s = 0; s < shards; ++s)
        reduce(acc, partial[s]);
    return acc;
}

/**
 * Split n items into `shards` contiguous ranges; returns the item
 * count of shard s (the first n % shards shards get one extra).
 */
inline size_t
shardSize(size_t n, size_t shards, size_t s)
{
    return n / shards + (s < n % shards ? 1 : 0);
}

/**
 * Shard sizing for batched kernels: every shard gets a multiple of
 * `granule` items (so batch loops never run a ragged tail mid-shard)
 * and the remainder all lands in the last shard. Like shardSize this
 * is a function of (n, shards, granule) alone, so batched results
 * stay independent of the worker count. Degenerates to one big last
 * shard when n < shards * granule.
 */
inline size_t
alignedShardSize(size_t n, size_t shards, size_t s, size_t granule)
{
    if (granule <= 1)
        return shardSize(n, shards, s);
    size_t whole = (n / granule) / shards; // granules per shard
    size_t base = whole * granule;
    if (s + 1 < shards)
        return base;
    return n - base * (shards - 1); // remainder rides the last shard
}

} // namespace rtm

#endif // RTM_UTIL_PARALLEL_HH
