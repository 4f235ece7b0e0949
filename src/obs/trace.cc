#include "obs/trace.hh"

#include <algorithm>

namespace pce::obs {

namespace detail {
std::atomic<bool> g_traceEnabled{false};
} // namespace detail

namespace {

using SteadyClock = std::chrono::steady_clock;

/**
 * The trace epoch. Captured at static initialization so it precedes
 * every steady_clock timestamp the pipeline can hand to traceToNs
 * (e.g. a request's submitTime captured before tracing was enabled).
 */
const SteadyClock::time_point g_epoch = SteadyClock::now();

/** Global record-order counter (sort tiebreak; see TraceEvent::seq). */
std::atomic<std::uint64_t> g_seq{0};

thread_local TraceTag t_ambientTag;

} // namespace

namespace detail {

/**
 * The calling thread's recorder. Its destructor runs at thread exit
 * and retires the recorder: the events stay collectable until the
 * next Tracer::reset(), which frees the ring. The slot forgets the
 * recorder once retired, so nothing on the exiting thread can write
 * into a ring that another thread's reset() has freed.
 *
 * Lifetime rule: a recording thread must exit before static
 * destruction begins, because retiring touches the Tracer singleton.
 */
struct ThreadRecorderSlot
{
    TraceRecorder *recorder = nullptr;

    ~ThreadRecorderSlot()
    {
        if (recorder != nullptr)
            Tracer::instance().retire(*recorder);
        recorder = nullptr;
    }
};

} // namespace detail

namespace {

thread_local detail::ThreadRecorderSlot t_slot;

} // namespace

void
setTraceEnabled(bool on)
{
    detail::g_traceEnabled.store(on, std::memory_order_relaxed);
}

std::uint64_t
traceNowNs()
{
    return traceToNs(SteadyClock::now());
}

std::uint64_t
traceToNs(SteadyClock::time_point tp)
{
    const auto d =
        std::chrono::duration_cast<std::chrono::nanoseconds>(tp -
                                                             g_epoch)
            .count();
    return d < 0 ? 0 : static_cast<std::uint64_t>(d);
}

// ----------------------------------------------------- TraceRecorder

TraceRecorder::TraceRecorder(std::uint32_t tid, std::size_t capacity)
    : tid_(tid)
{
    ring_.resize(capacity == 0 ? 1 : capacity);
}

void
TraceRecorder::record(TraceEvent e)
{
    e.tid = tid_;
    e.seq = g_seq.fetch_add(1, std::memory_order_relaxed);
    std::lock_guard<std::mutex> lock(mutex_);
    ring_[total_ % ring_.size()] = e;
    ++total_;
}

std::uint64_t
TraceRecorder::recorded() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return total_;
}

std::uint64_t
TraceRecorder::dropped() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return total_ > ring_.size() ? total_ - ring_.size() : 0;
}

// ------------------------------------------------------------ Tracer

Tracer &
Tracer::instance()
{
    static Tracer tracer;
    return tracer;
}

TraceRecorder &
Tracer::recorder()
{
    if (t_slot.recorder != nullptr)
        return *t_slot.recorder;
    std::lock_guard<std::mutex> lock(mutex_);
    recorders_.push_back(
        std::make_unique<TraceRecorder>(nextTid_++, capacity_));
    t_slot.recorder = recorders_.back().get();
    return *t_slot.recorder;
}

void
Tracer::retire(TraceRecorder &rec)
{
    std::lock_guard<std::mutex> lock(rec.mutex_);
    rec.retired_ = true;
}

void
Tracer::nameThread(std::string name)
{
    TraceRecorder &rec = recorder();
    std::lock_guard<std::mutex> lock(rec.mutex_);
    rec.threadName_ = std::move(name);
}

std::vector<TraceEvent>
Tracer::collect() const
{
    std::vector<TraceEvent> out;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        for (const auto &rp : recorders_) {
            const TraceRecorder &rec = *rp;
            std::lock_guard<std::mutex> rlock(rec.mutex_);
            const std::size_t cap = rec.ring_.size();
            const std::size_t kept =
                static_cast<std::size_t>(std::min<std::uint64_t>(
                    rec.total_, static_cast<std::uint64_t>(cap)));
            // Unroll the ring oldest-first: the oldest retained event
            // sits at total_ % cap once the ring has wrapped.
            const std::uint64_t first = rec.total_ - kept;
            for (std::size_t i = 0; i < kept; ++i)
                out.push_back(rec.ring_[(first + i) % cap]);
        }
    }
    std::sort(out.begin(), out.end(),
              [](const TraceEvent &a, const TraceEvent &b) {
                  if (a.beginNs != b.beginNs)
                      return a.beginNs < b.beginNs;
                  if (a.endNs != b.endNs)
                      return a.endNs > b.endNs;  // parent before child
                  return a.seq < b.seq;
              });
    return out;
}

std::vector<std::pair<std::uint32_t, std::string>>
Tracer::threadNames() const
{
    std::vector<std::pair<std::uint32_t, std::string>> out;
    std::lock_guard<std::mutex> lock(mutex_);
    for (const auto &rp : recorders_) {
        std::lock_guard<std::mutex> rlock(rp->mutex_);
        if (!rp->threadName_.empty())
            out.emplace_back(rp->tid_, rp->threadName_);
    }
    return out;
}

std::uint64_t
Tracer::recordedEvents() const
{
    std::uint64_t sum = 0;
    std::lock_guard<std::mutex> lock(mutex_);
    for (const auto &rp : recorders_)
        sum += rp->recorded();
    return sum;
}

std::uint64_t
Tracer::droppedEvents() const
{
    std::uint64_t sum = 0;
    std::lock_guard<std::mutex> lock(mutex_);
    for (const auto &rp : recorders_)
        sum += rp->dropped();
    return sum;
}

std::size_t
Tracer::threadCount() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return recorders_.size();
}

void
Tracer::reset()
{
    std::lock_guard<std::mutex> lock(mutex_);
    // Exited threads' recorders go (their events were this trace's
    // last use of them); live threads keep theirs, cleared.
    std::erase_if(recorders_, [](const std::unique_ptr<TraceRecorder> &rp) {
        std::lock_guard<std::mutex> rlock(rp->mutex_);
        rp->total_ = 0;
        return rp->retired_;
    });
}

void
Tracer::setCapacityPerThread(std::size_t capacity)
{
    if (capacity == 0)
        capacity = 1;
    std::lock_guard<std::mutex> lock(mutex_);
    capacity_ = capacity;
    for (const auto &rp : recorders_) {
        std::lock_guard<std::mutex> rlock(rp->mutex_);
        rp->ring_.assign(capacity, TraceEvent{});
        rp->total_ = 0;
    }
}

std::size_t
Tracer::capacityPerThread() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return capacity_;
}

// ---------------------------------------------------------- TagScope

TagScope::TagScope(const TraceTag &tag) : saved_(t_ambientTag)
{
    t_ambientTag = tag;
}

TagScope::~TagScope() { t_ambientTag = saved_; }

const TraceTag &
TagScope::current()
{
    return t_ambientTag;
}

// --------------------------------------------------------- TraceSpan

void
TraceSpan::begin(const char *name, const TraceTag &tag,
                 std::uint64_t beginNs)
{
    name_ = name;
    tag_ = tag;
    beginNs_ = beginNs;
}

void
TraceSpan::end()
{
    if (name_ == nullptr)
        return;
    recordSpan(name_, beginNs_, traceNowNs(), tag_, argName_, arg_);
    name_ = nullptr;
}

// ----------------------------------------------------- free functions

void
recordSpan(const char *name, std::uint64_t beginNs,
           std::uint64_t endNs, const TraceTag &tag,
           const char *argName, std::uint64_t arg)
{
    TraceEvent e;
    e.name = name;
    e.argName = argName;
    e.beginNs = beginNs;
    e.endNs = endNs < beginNs ? beginNs : endNs;
    e.frame = tag.frame;
    e.stream = tag.stream;
    e.shard = tag.shard;
    e.arg = arg;
    Tracer::instance().recorder().record(e);
}

void
traceInstant(const char *name, const char *argName, std::uint64_t arg)
{
    traceInstant(name, TagScope::current(), argName, arg);
}

void
traceInstant(const char *name, const TraceTag &tag,
             const char *argName, std::uint64_t arg)
{
    if (!traceEnabled())
        return;
    TraceEvent e;
    e.name = name;
    e.argName = argName;
    e.beginNs = traceNowNs();
    e.endNs = e.beginNs;
    e.frame = tag.frame;
    e.stream = tag.stream;
    e.shard = tag.shard;
    e.arg = arg;
    e.instant = true;
    Tracer::instance().recorder().record(e);
}

} // namespace pce::obs
