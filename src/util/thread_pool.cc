#include "util/thread_pool.hh"

#include <algorithm>

#include "util/parallel.hh"

namespace dnastore {

namespace {

/**
 * True while the current thread is executing inside a pool job; nested
 * forEach calls run inline instead of re-entering the pool.
 */
thread_local bool tl_in_pool_job = false;

/** Hard cap on persistent workers (oversubscription guard). */
constexpr size_t kMaxWorkers = 256;

} // namespace

ThreadPool &
ThreadPool::shared()
{
    static ThreadPool pool;
    return pool;
}

ThreadPool::~ThreadPool()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stop_ = true;
    }
    wake_.notify_all();
    for (auto &t : workers_)
        t.join();
}

void
ThreadPool::ensureWorkers(size_t wanted)
{
    std::lock_guard<std::mutex> lock(mutex_);
    wanted = std::min(wanted, kMaxWorkers);
    while (workers_.size() < wanted) {
        size_t slot = workers_.size();
        workers_.emplace_back([this, slot] { workerMain(slot); });
    }
}

void
ThreadPool::workerMain(size_t slot)
{
    uint64_t seen = 0;
    for (;;) {
        Job *job = nullptr;
        {
            std::unique_lock<std::mutex> lock(mutex_);
            wake_.wait(lock,
                       [&] { return stop_ || epoch_ != seen; });
            if (stop_)
                return;
            seen = epoch_;
            // Participant 0 is the caller; worker `slot` is slot + 1.
            // Extra workers beyond the job's participant count sit
            // out. Decided under mutex_ from jobParticipants_: the
            // Job lives on the caller's stack and only counted
            // participants keep it alive, so an uncounted worker must
            // not dereference job_ at all — by the time it runs, the
            // counted ones may have finished and forEach returned.
            if (job_ != nullptr && slot + 1 < jobParticipants_)
                job = job_;
        }
        if (job != nullptr)
            participate(*job, slot + 1);
    }
}

void
ThreadPool::participate(Job &job, size_t participant)
{
    tl_in_pool_job = true;
    std::vector<Slice> &slices = *job.slices;
    const size_t p_count = job.participants;
    const size_t grain = job.grain;

    // Claim grain-sized chunks, own slice first, then steal in ring
    // order. fetch_add makes each index claimable exactly once no
    // matter how many thieves race on a slice.
    for (size_t v = 0; v < p_count; ++v) {
        Slice &s = slices[(participant + v) % p_count];
        for (;;) {
            size_t begin = s.next.fetch_add(grain);
            if (begin >= s.end)
                break;
            size_t end = std::min(begin + grain, s.end);
            try {
                for (size_t i = begin; i < end; ++i)
                    (*job.body)(i);
            } catch (...) {
                std::lock_guard<std::mutex> lock(job.errMutex);
                if (!job.error || begin < job.errorIndex) {
                    job.error = std::current_exception();
                    job.errorIndex = begin;
                }
                // This participant stops claiming further work; the
                // rest of the loop still completes on the others.
                v = p_count;
                break;
            }
        }
    }
    tl_in_pool_job = false;

    if (job.unfinished.fetch_sub(1) == 1) {
        std::lock_guard<std::mutex> lock(mutex_);
        done_.notify_all();
    }
}

void
ThreadPool::forEach(size_t n, size_t num_threads, size_t grain,
                    const std::function<void(size_t)> &body)
{
    size_t participants =
        std::min(resolveThreadCount(num_threads), n);
    participants = std::min(participants, kMaxWorkers + 1);
    if (participants <= 1 || tl_in_pool_job) {
        for (size_t i = 0; i < n; ++i)
            body(i);
        return;
    }

    if (grain == 0) {
        // Small enough chunks that stealing can smooth imbalance,
        // large enough that the fetch_add traffic stays negligible.
        grain = std::max<size_t>(1, n / (participants * 8));
        grain = std::min<size_t>(grain, 64);
    }

    // One pool job at a time. A caller that finds the pool busy runs
    // its loop inline on its own thread instead of blocking idle —
    // independent top-level loops from different threads still
    // overlap, they just don't both get the workers.
    std::unique_lock<std::mutex> runLock(runMutex_, std::try_to_lock);
    if (!runLock.owns_lock()) {
        for (size_t i = 0; i < n; ++i)
            body(i);
        return;
    }

    ensureWorkers(participants - 1);

    std::vector<Slice> slices(participants);
    for (size_t p = 0; p < participants; ++p) {
        // Contiguous slices, remainder spread over the first ones.
        size_t base = n / participants, extra = n % participants;
        size_t begin = p * base + std::min(p, extra);
        slices[p].next.store(begin, std::memory_order_relaxed);
        slices[p].end = begin + base + (p < extra ? 1 : 0);
    }

    Job job;
    job.body = &body;
    job.slices = &slices;
    job.participants = participants;
    job.grain = grain;
    job.unfinished.store(participants, std::memory_order_relaxed);

    {
        std::lock_guard<std::mutex> lock(mutex_);
        job_ = &job;
        jobParticipants_ = participants;
        ++epoch_;
    }
    wake_.notify_all();

    participate(job, 0);

    {
        std::unique_lock<std::mutex> lock(mutex_);
        done_.wait(lock, [&] {
            return job.unfinished.load(std::memory_order_acquire) == 0;
        });
        job_ = nullptr;
        jobParticipants_ = 0;
    }

    if (job.error)
        std::rethrow_exception(job.error);
}

} // namespace dnastore
