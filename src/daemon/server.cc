#include "daemon/server.hh"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <iterator>
#include <system_error>
#include <utility>

#include "api/wire.hh"
#include "util/byteio.hh"
#include "util/errno_text.hh"

namespace dnastore {
namespace daemon {

namespace {

/** How long the acceptor waits after accept() runs out of fds. */
constexpr int kAcceptBackoffMs = 100;

bool
sendResponse(int fd, const Response &response)
{
    return sendAll(fd, frame(encodeResponse(response)));
}

/** poll() for readability; 0 on timeout, <0 on error, >0 ready. */
int
pollIn(int fd, int timeoutMs)
{
    struct pollfd pfd;
    pfd.fd = fd;
    pfd.events = POLLIN;
    pfd.revents = 0;
    int r = ::poll(&pfd, 1, timeoutMs);
    if (r < 0 && errno == EINTR)
        return 0;
    return r;
}

std::vector<uint8_t>
encodeListing(const std::vector<api::ObjectInfo> &listing)
{
    ByteWriter w;
    w.u32(uint32_t(listing.size()));
    for (const api::ObjectInfo &info : listing) {
        w.u16(uint16_t(info.name.size()));
        w.str(info.name);
        w.u64(info.bytes);
    }
    return w.take();
}

std::vector<uint8_t>
encodeTrialFlags(const api::TrialSeries &series)
{
    ByteWriter w;
    w.u32(uint32_t(series.trials.size()));
    for (const api::TrialResult &trial : series.trials)
        w.u8(trial.success ? 1 : 0);
    return w.take();
}

std::vector<uint8_t>
textBody(const std::string &text)
{
    return std::vector<uint8_t>(text.begin(), text.end());
}

} // namespace

Server::Server(const ServerOptions &options)
    : options_(options), tenants_(options.tenants)
{}

Server::~Server()
{
    drain();
}

api::Status
Server::start()
{
    listenFd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (listenFd_ < 0)
        return api::Status::unavailable(api::formatMessage(
            "socket() failed: %s", errnoText(errno).c_str()));
    int one = 1;
    ::setsockopt(listenFd_, SOL_SOCKET, SO_REUSEADDR, &one,
                 sizeof one);

    struct sockaddr_in addr;
    std::memset(&addr, 0, sizeof addr);
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(options_.port);
    if (::bind(listenFd_, reinterpret_cast<struct sockaddr *>(&addr),
               sizeof addr) < 0) {
        api::Status status = api::Status::unavailable(
            api::formatMessage("bind(127.0.0.1:%u) failed: %s",
                               unsigned(options_.port),
                               errnoText(errno).c_str()));
        ::close(listenFd_);
        listenFd_ = -1;
        return status;
    }
    if (::listen(listenFd_, 64) < 0) {
        api::Status status = api::Status::unavailable(
            api::formatMessage("listen() failed: %s",
                               errnoText(errno).c_str()));
        ::close(listenFd_);
        listenFd_ = -1;
        return status;
    }
    socklen_t len = sizeof addr;
    if (::getsockname(listenFd_,
                      reinterpret_cast<struct sockaddr *>(&addr),
                      &len) == 0)
        port_ = ntohs(addr.sin_port);
    if (::pipe(wakePipe_) != 0) {
        ::close(listenFd_);
        listenFd_ = -1;
        return api::Status::unavailable("pipe() failed");
    }
    running_.store(true);
    stopping_.store(false);
    acceptor_ = std::thread([this] { acceptLoop(); });
    return api::Status();
}

void
Server::acceptLoop()
{
    while (!stopping_.load()) {
        struct pollfd pfds[2];
        pfds[0].fd = listenFd_;
        pfds[0].events = POLLIN;
        pfds[0].revents = 0;
        pfds[1].fd = wakePipe_[0];
        pfds[1].events = POLLIN;
        pfds[1].revents = 0;
        int r = ::poll(pfds, 2, 500);
        if (r < 0) {
            if (errno == EINTR)
                continue;
            break;
        }
        if (stopping_.load())
            break;
        reapFinished();
        if (r == 0 || !(pfds[0].revents & POLLIN))
            continue;
        int fd = ::accept(listenFd_, nullptr, nullptr);
        if (fd < 0) {
            // Out of descriptors: the connection stays queued and
            // poll() reports it again at once, so wait (waking early
            // on drain) instead of spinning until one frees up.
            if (errno == EMFILE || errno == ENFILE)
                pollIn(wakePipe_[0], kAcceptBackoffMs);
            continue;
        }
        size_t live;
        {
            std::lock_guard<std::mutex> lock(connectionsMu_);
            live = connections_.size();
        }
        if (live >= options_.maxConnections) {
            // One frame saying why, so the client does not wait on a
            // connection nobody will serve.
            sendResponse(fd, errorResponse(
                                 kOpProtocolError,
                                 api::Status::unavailable(api::formatMessage(
                                     "connection limit reached: %zu "
                                     "connections open",
                                     live))));
            ::close(fd);
            continue;
        }
        auto conn = std::make_unique<Connection>();
        Connection *raw = conn.get();
        try {
            conn->thread = std::thread([this, fd, raw] {
                handleConnection(fd);
                raw->done.store(true, std::memory_order_release);
            });
        } catch (const std::system_error &) {
            // Out of threads: refuse this connection, back off.
            ::close(fd);
            pollIn(wakePipe_[0], kAcceptBackoffMs);
            continue;
        }
        std::lock_guard<std::mutex> lock(connectionsMu_);
        connections_.push_back(std::move(conn));
    }
}

void
Server::reapFinished()
{
    std::vector<std::unique_ptr<Connection>> finished;
    {
        std::lock_guard<std::mutex> lock(connectionsMu_);
        auto live = std::partition(
            connections_.begin(), connections_.end(),
            [](const std::unique_ptr<Connection> &conn) {
                return !conn->done.load(std::memory_order_acquire);
            });
        finished.assign(std::make_move_iterator(live),
                        std::make_move_iterator(connections_.end()));
        connections_.erase(live, connections_.end());
    }
    for (auto &conn : finished)
        conn->thread.join();
}

void
Server::handleConnection(int fd)
{
    std::vector<uint8_t> buf;
    std::vector<uint8_t> payload;
    // Poll time since the last byte arrived: only waiting for a
    // request counts toward the idle deadline, never serving one. A
    // poll cut short by a signal counts in full; the daemon's only
    // signals start a drain.
    int idle_ms = 0;
    bool open = true;
    while (open) {
        // Serve every complete frame already buffered before reading
        // more — a pipelining client gets per-request responses in
        // order.
        size_t consumed = 0;
        std::string frame_error;
        FrameStatus fs =
            extractFrame(buf, &payload, &consumed, &frame_error);
        if (fs == FrameStatus::Bad) {
            // The stream cannot be resynchronized past junk: one
            // protocol-error frame (DATA_LOSS, the corruption
            // contract's code), then close this connection only.
            sendResponse(fd,
                         errorResponse(kOpProtocolError,
                                       api::Status::dataLoss(
                                           frame_error)));
            break;
        }
        if (fs == FrameStatus::Ok) {
            buf.erase(buf.begin(),
                      buf.begin() + std::ptrdiff_t(consumed));
            Request request;
            std::string decode_error;
            Response response;
            if (!decodeRequest(payload, &request, &decode_error)) {
                // Well-framed but undecodable: fail the request,
                // keep the connection.
                response = errorResponse(
                    kOpProtocolError,
                    api::Status::invalidArgument(api::formatMessage(
                        "malformed request: %s",
                        decode_error.c_str())));
            } else {
                response = dispatch(request);
            }
            requestsServed_.fetch_add(1);
            if (!sendResponse(fd, response))
                break;
            continue;
        }
        // NeedMore. On drain, a half-received frame still being
        // transmitted gets finished (the client already committed to
        // it), but an idle connection — empty buffer, or a stalled
        // partial frame that sends nothing within the poll window —
        // closes, so drain() can never wedge on a silent peer.
        if (stopping_.load() && buf.empty())
            break;
        if (idle_ms >= options_.idleTimeoutMs)
            break; // silent too long: free the slot
        const int wait_ms = std::min(200, options_.idleTimeoutMs - idle_ms);
        int r = pollIn(fd, wait_ms);
        if (r < 0)
            break;
        if (r == 0) {
            if (stopping_.load())
                break;
            idle_ms += wait_ms;
            continue;
        }
        uint8_t chunk[4096];
        ssize_t n = ::read(fd, chunk, sizeof chunk);
        if (n <= 0) {
            if (n < 0 && errno == EINTR)
                continue;
            break; // EOF or hard error.
        }
        buf.insert(buf.end(), chunk, chunk + n);
        idle_ms = 0;
        // A frame is at most header + max payload; a buffer beyond
        // that holds at least one complete frame or is junk, and
        // extractFrame decides which next iteration.
    }
    // The connection owns its descriptor: release it the moment the
    // conversation ends, not at drain.
    ::close(fd);
}

Response
Server::dispatch(const Request &request)
{
    const uint8_t op = uint8_t(request.op);
    Response response;
    response.op = op;

    auto fromStatus = [op](const api::Status &status) {
        return errorResponse(op, status);
    };

    switch (request.op) {
      case Op::Ping: {
        response.body = textBody("pong");
        return response;
      }
      case Op::Put: {
        api::Result<Tenant *> tenant =
            tenants_.getOrCreate(request.tenant);
        if (!tenant.ok())
            return fromStatus(tenant.status());
        api::Status status =
            (*tenant)->put(request.name, request.data);
        if (!status.ok())
            return fromStatus(status);
        return response;
      }
      case Op::Get: {
        api::Result<Tenant *> tenant = tenants_.find(request.tenant);
        if (!tenant.ok())
            return fromStatus(tenant.status());
        api::Result<std::vector<uint8_t>> data =
            (*tenant)->get(request.name);
        if (!data.ok())
            return fromStatus(data.status());
        response.body = std::move(*data);
        return response;
      }
      case Op::List: {
        api::Result<Tenant *> tenant = tenants_.find(request.tenant);
        if (!tenant.ok())
            return fromStatus(tenant.status());
        response.body = encodeListing((*tenant)->list());
        return response;
      }
      case Op::Health: {
        api::Result<Tenant *> tenant = tenants_.find(request.tenant);
        if (!tenant.ok())
            return fromStatus(tenant.status());
        api::Result<std::string> json = (*tenant)->healthJson();
        if (!json.ok())
            return fromStatus(json.status());
        response.body = textBody(*json);
        return response;
      }
      case Op::Scrub: {
        api::Result<Tenant *> tenant = tenants_.find(request.tenant);
        if (!tenant.ok())
            return fromStatus(tenant.status());
        api::Result<api::ScrubReport> report =
            (*tenant)->scrub(request.scrub);
        if (!report.ok())
            return fromStatus(report.status());
        response.body = textBody(report->toJson());
        return response;
      }
      case Op::Trial: {
        api::Result<Tenant *> tenant = tenants_.find(request.tenant);
        if (!tenant.ok())
            return fromStatus(tenant.status());
        if (const char *err = checkTrialCount(request.trials))
            return fromStatus(api::Status::invalidArgument(err));
        api::Result<api::TrialSeries> series =
            (*tenant)->trial(request.trials, request.trialSeed);
        if (!series.ok())
            return fromStatus(series.status());
        response.body = encodeTrialFlags(*series);
        return response;
      }
      case Op::Save: {
        api::Result<Tenant *> tenant = tenants_.find(request.tenant);
        if (!tenant.ok())
            return fromStatus(tenant.status());
        api::Status status = (*tenant)->save();
        if (!status.ok())
            return fromStatus(status);
        return response;
      }
    }
    return errorResponse(op, api::Status::internal(
                                 "unhandled opcode in dispatch"));
}

api::Status
Server::drain()
{
    if (!running_.exchange(false))
        return api::Status();
    stopping_.store(true);
    // Wake the acceptor (it also times out of poll on its own).
    if (wakePipe_[1] >= 0) {
        uint8_t byte = 1;
        ssize_t ignored = ::write(wakePipe_[1], &byte, 1);
        (void)ignored;
    }
    if (acceptor_.joinable())
        acceptor_.join();
    if (listenFd_ >= 0) {
        ::close(listenFd_);
        listenFd_ = -1;
    }
    // Connection threads notice stopping_ once their current request
    // (and any half-received frame) completes.
    std::vector<std::unique_ptr<Connection>> connections;
    {
        std::lock_guard<std::mutex> lock(connectionsMu_);
        connections.swap(connections_);
    }
    for (auto &conn : connections)
        conn->thread.join();
    for (int i = 0; i < 2; ++i) {
        if (wakePipe_[i] >= 0) {
            ::close(wakePipe_[i]);
            wakePipe_[i] = -1;
        }
    }
    // No request can queue a rebuild any more; stop the worker so the
    // saves below do not wait behind rebuilds nobody will read.
    tenants_.stopRebuilds();
    // The durable half of the drain contract: every tenant that took
    // mutations is saved through writePoolFile's atomic tmp+rename,
    // so the root directory reopens consistent even if this process
    // is killed right after.
    return tenants_.saveDirty();
}

} // namespace daemon
} // namespace dnastore
