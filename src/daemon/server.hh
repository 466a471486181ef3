/**
 * @file
 * `dnastored` — the concurrent multi-tenant storage daemon.
 *
 * A Server binds a localhost TCP socket, accepts up to
 * ServerOptions::maxConnections concurrent client connections (one
 * reader thread per connection), and serves the protocol.hh request
 * set against a TenantRegistry:
 *
 *   Ping         liveness
 *   Put          tenant quota check + Store::put (coalesced:
 *                synthesis deferred to the next snapshot build)
 *   Get          lock-free from the tenant's published read snapshot,
 *                stale when it already holds the name (the rebuild
 *                runs on the registry's background worker); a name
 *                newer than the snapshot, or a snapshot from before a
 *                repair, rebuilds synchronously first
 *   List         under the tenant writer lock
 *   Health       lock-free against the tenant's health snapshot
 *   Scrub/Save   serialized through the tenant writer lock
 *   Trial        Monte-Carlo batch on the store's dispatcher
 *
 * Every response carries an api/wire.hh status code, so the façade's
 * Status taxonomy — CAPACITY_EXCEEDED quota rejections included —
 * crosses the socket unchanged.
 *
 * Error containment: an undecodable-but-well-framed payload fails
 * only that request (INVALID_ARGUMENT response, connection kept);
 * a framing failure (bad magic, wild length, CRC mismatch) cannot be
 * resynchronized, so the server answers one protocol-error frame and
 * closes that connection — never crashing, never wedging the other
 * connections.
 *
 * Resource bounds: a connection closes its own descriptor when it
 * ends, and the acceptor joins finished connection threads, so
 * descriptors and threads track the live connections, not every
 * connection ever accepted. A connection accepted while
 * maxConnections are live gets one UNAVAILABLE frame and is closed,
 * and one that sends nothing for ServerOptions::idleTimeoutMs is
 * closed, so idle peers cannot keep the cap filled.
 * When accept() runs out of descriptors (EMFILE/ENFILE) the acceptor
 * backs off instead of spinning.
 *
 * Shutdown: drain() (the CLI calls it on SIGTERM) stops accepting,
 * lets every in-flight request finish and flush its response, joins
 * the connection threads, stops the rebuild worker (the in-flight
 * rebuild finishes, queued ones are dropped), and atomically saves
 * every dirty tenant pool (writePoolFile's tmp+rename discipline), so
 * a drained root directory always reopens consistent.
 */

#ifndef DNASTORE_DAEMON_SERVER_HH
#define DNASTORE_DAEMON_SERVER_HH

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "api/status.hh"
#include "daemon/protocol.hh"
#include "daemon/tenant.hh"

namespace dnastore {
namespace daemon {

struct ServerOptions
{
    TenantConfig tenants;

    /** TCP port on 127.0.0.1; 0 picks an ephemeral port. */
    uint16_t port = 0;

    /**
     * Live connections served at once; one accepted beyond the cap
     * gets an UNAVAILABLE frame and is closed.
     */
    size_t maxConnections = 64;

    /**
     * A connection that receives no byte for this long while it
     * waits for a request is closed, so silent peers cannot hold
     * every maxConnections slot. Time spent serving a request does
     * not count.
     */
    int idleTimeoutMs = 60000;
};

class Server
{
  public:
    explicit Server(const ServerOptions &options);

    /** Drains (and saves dirty tenants) if still running. */
    ~Server();

    Server(const Server &) = delete;
    Server &operator=(const Server &) = delete;

    /** Bind + listen + start the acceptor. Unavailable on failure. */
    api::Status start();

    /** The bound port (meaningful after start()). */
    uint16_t port() const { return port_; }

    /**
     * Graceful shutdown: stop accepting, finish in-flight requests,
     * join every connection thread, stop the rebuild worker, persist
     * dirty tenant pools.
     * Idempotent; returns the first save error (the drain itself
     * cannot fail).
     */
    api::Status drain();

    /** Requests served since start (for tests and logs). */
    uint64_t requestsServed() const { return requestsServed_.load(); }

  private:
    struct Connection
    {
        std::thread thread;
        std::atomic<bool> done{ false }; //!< Thread is about to exit.
    };

    void acceptLoop();

    /** Serve one connection until it ends, then close @p fd. */
    void handleConnection(int fd);

    /** Join the threads of connections that have ended. */
    void reapFinished();
    Response dispatch(const Request &request);

    const ServerOptions options_;
    TenantRegistry tenants_;

    int listenFd_ = -1;
    int wakePipe_[2] = { -1, -1 };
    uint16_t port_ = 0;

    std::atomic<bool> running_{ false };
    std::atomic<bool> stopping_{ false };
    std::atomic<uint64_t> requestsServed_{ 0 };

    std::thread acceptor_;
    std::mutex connectionsMu_;
    std::vector<std::unique_ptr<Connection>> connections_;
};

} // namespace daemon
} // namespace dnastore

#endif // DNASTORE_DAEMON_SERVER_HH
