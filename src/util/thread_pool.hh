/**
 * @file
 * Shared work-stealing thread pool behind the pipeline's parallel
 * loops.
 *
 * PR 1's parallelFor spawned fresh threads per call and split the index
 * range into one static block per worker, so a slow block (a cluster
 * with pathological reads, a codeword with many errors) left the other
 * workers idle, and every call paid thread start-up. This pool keeps
 * one set of persistent workers for the whole process and schedules
 * each loop as stealable chunks: every participant owns a contiguous
 * slice and claims grain-sized batches from it; participants that
 * drain their slice steal batches from the slowest slice instead of
 * going idle. Persistent workers also keep the decoder's
 * thread_local scratch (RsScratch, consensus buffers) warm across
 * calls.
 *
 * Determinism: each index runs exactly once and callers keep writes
 * disjoint per index, so results are bit-identical for every thread
 * count and every steal schedule — the same contract parallelFor
 * always had.
 */

#ifndef DNASTORE_UTIL_THREAD_POOL_HH
#define DNASTORE_UTIL_THREAD_POOL_HH

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace dnastore {

class ThreadPool
{
  public:
    ThreadPool() = default;
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /**
     * The process-wide pool used by parallelFor. Workers are spawned
     * lazily on first parallel call and reused ever after.
     */
    static ThreadPool &shared();

    /**
     * Run body(i) for every i in [0, n), on up to @p num_threads
     * participants (the calling thread included; 0 = all hardware
     * threads), stealing chunks of about @p grain indices (0 = auto).
     *
     * Runs inline when one participant suffices or when called from
     * inside a pool worker (nested parallelism executes serially
     * rather than deadlocking). The first exception thrown by any
     * iteration (lowest-starting chunk wins) is rethrown on the
     * calling thread after the loop completes.
     */
    void forEach(size_t n, size_t num_threads, size_t grain,
                 const std::function<void(size_t)> &body);

  private:
    /** One participant's stealable slice of the index range. */
    struct alignas(64) Slice
    {
        std::atomic<size_t> next{0};
        size_t end = 0;
    };

    struct Job
    {
        const std::function<void(size_t)> *body = nullptr;
        std::vector<Slice> *slices = nullptr;
        size_t participants = 0;
        size_t grain = 1;
        std::atomic<size_t> unfinished{0};
        std::mutex errMutex;
        std::exception_ptr error;
        size_t errorIndex = 0;
    };

    void ensureWorkers(size_t wanted);
    void workerMain(size_t slot);
    void participate(Job &job, size_t participant);

    std::mutex mutex_;
    std::condition_variable wake_;
    std::condition_variable done_;
    std::vector<std::thread> workers_;
    Job *job_ = nullptr;
    /**
     * Participant count of the current job, mirrored from the Job so
     * workers can decide whether they take part while still holding
     * mutex_. Workers that sit out must never touch *job_ (it lives
     * on the caller's stack and is only kept alive until the counted
     * participants finish).
     */
    size_t jobParticipants_ = 0;
    uint64_t epoch_ = 0;
    bool stop_ = false;

    /**
     * Marks the pool as occupied by one top-level forEach; callers
     * that find it taken execute their loop inline instead of
     * blocking (see forEach).
     */
    std::mutex runMutex_;
};

} // namespace dnastore

#endif // DNASTORE_UTIL_THREAD_POOL_HH
