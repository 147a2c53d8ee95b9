#include "parallel.hh"

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdlib>
#include <memory>

#include "logging.hh"

namespace rtm
{

namespace
{

/** Set while the current thread is a pool worker executing a task. */
thread_local bool tls_in_worker = false;

std::unique_ptr<ThreadPool> g_pool;

/** Signal-handler state: the routed token and the first signal seen
 *  (a second one force-exits). */
std::atomic<CancelToken *> g_signal_token{nullptr};
std::atomic<int> g_signal_no{0};

extern "C" void
cancelSignalHandler(int signo)
{
    // Second signal: the user is done waiting. _Exit is
    // async-signal-safe; 128+signo is the shell convention.
    if (g_signal_no.exchange(signo, std::memory_order_relaxed) != 0)
        std::_Exit(128 + signo);
    if (CancelToken *t =
            g_signal_token.load(std::memory_order_relaxed))
        t->requestCancel();
}

} // anonymous namespace

double
monotonicSeconds()
{
    using clock = std::chrono::steady_clock;
    return std::chrono::duration<double>(
               clock::now().time_since_epoch())
        .count();
}

void
installCancelOnSignals(CancelToken *token)
{
    g_signal_token.store(token, std::memory_order_relaxed);
    g_signal_no.store(0, std::memory_order_relaxed);
    std::signal(SIGINT,
                token ? cancelSignalHandler : SIG_DFL);
    std::signal(SIGTERM,
                token ? cancelSignalHandler : SIG_DFL);
}

unsigned
ThreadPool::configuredThreads()
{
    if (const char *env = std::getenv("RTM_THREADS")) {
        char *end = nullptr;
        long v = std::strtol(env, &end, 10);
        if (end == env || v < 1 || v > 1024)
            rtm_panic("RTM_THREADS='%s' is not a thread count in "
                      "[1, 1024]", env);
        return static_cast<unsigned>(v);
    }
    unsigned hw = std::thread::hardware_concurrency();
    return hw ? hw : 1;
}

ThreadPool &
ThreadPool::global()
{
    if (!g_pool)
        g_pool = std::make_unique<ThreadPool>(configuredThreads());
    return *g_pool;
}

void
ThreadPool::setGlobalThreads(unsigned threads)
{
    g_pool = std::make_unique<ThreadPool>(threads);
}

ThreadPool::ThreadPool(unsigned threads)
    : threads_(threads ? threads : 1)
{
    // A one-thread pool runs everything inline: no workers at all.
    if (threads_ < 2)
        return;
    workers_.reserve(threads_);
    for (unsigned i = 0; i < threads_; ++i)
        workers_.emplace_back([this] { workerLoop(); });
}

ThreadPool::~ThreadPool()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stop_ = true;
    }
    cv_.notify_all();
    for (auto &w : workers_)
        w.join();
}

void
ThreadPool::workerLoop()
{
    tls_in_worker = true;
    for (;;) {
        std::function<void()> task;
        {
            std::unique_lock<std::mutex> lock(mutex_);
            cv_.wait(lock,
                     [this] { return stop_ || !queue_.empty(); });
            if (queue_.empty())
                return; // stop_ set and nothing left to run
            task = std::move(queue_.front());
            queue_.pop_front();
        }
        task();
    }
}

void
ThreadPool::submit(std::function<void()> task)
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        queue_.push_back(std::move(task));
    }
    cv_.notify_one();
}

void
ThreadPool::parallelFor(size_t n,
                        const std::function<void(size_t)> &fn)
{
    parallelFor(n, fn, nullptr);
}

void
ThreadPool::parallelFor(size_t n,
                        const std::function<void(size_t)> &fn,
                        const CancelToken *cancel)
{
    if (n == 0)
        return;
    // Inline when serial, trivially small, or nested in a worker
    // (nested dispatch would deadlock a saturated pool).
    if (workers_.empty() || n == 1 || tls_in_worker) {
        for (size_t i = 0; i < n; ++i) {
            if (cancel && cancel->cancelled())
                return;
            fn(i);
        }
        return;
    }
    struct Batch
    {
        std::atomic<size_t> next{0};
        std::atomic<unsigned> active{0};
        std::mutex m;
        std::condition_variable done;
    };
    auto batch = std::make_shared<Batch>();
    size_t lanes = std::min<size_t>(workers_.size(), n);
    batch->active.store(static_cast<unsigned>(lanes));
    for (size_t lane = 0; lane < lanes; ++lane) {
        submit([batch, n, &fn, cancel] {
            size_t i;
            while ((i = batch->next.fetch_add(1)) < n) {
                if (cancel && cancel->cancelled())
                    break;
                fn(i);
            }
            if (batch->active.fetch_sub(1) == 1) {
                std::lock_guard<std::mutex> lock(batch->m);
                batch->done.notify_all();
            }
        });
    }
    std::unique_lock<std::mutex> lock(batch->m);
    batch->done.wait(lock,
                     [&] { return batch->active.load() == 0; });
}

void
parallelFor(size_t n, const std::function<void(size_t)> &fn)
{
    ThreadPool::global().parallelFor(n, fn);
}

size_t
shardCount(size_t n)
{
    // 64 shards saturates any plausible pool with good load balance;
    // below that, one shard per item keeps tiny jobs cheap. Depends
    // on n only — never on the worker count — for reproducibility.
    constexpr size_t kMaxShards = 64;
    return n < kMaxShards ? n : kMaxShards;
}

} // namespace rtm
