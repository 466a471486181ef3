/**
 * @file
 * Blocking client for the `dnastored` wire protocol.
 *
 * One Client = one TCP connection. Each call frames a request,
 * writes it, reads exactly one response frame, and maps the wire
 * status back into the api::Status taxonomy — so remote calls and
 * local `api::Store` calls fail with the same codes (and, for the
 * store-backed ops, the same messages).
 *
 * Used by `dnastore client ...`, the daemon test suites, and the
 * daemon bench. Not thread-safe; give each client thread its own
 * Client (connections are cheap, the server handles many).
 */

#ifndef DNASTORE_DAEMON_CLIENT_HH
#define DNASTORE_DAEMON_CLIENT_HH

#include <cstdint>
#include <string>
#include <vector>

#include "api/status.hh"
#include "api/store.hh"
#include "daemon/protocol.hh"

namespace dnastore {
namespace daemon {

class Client
{
  public:
    Client() = default;
    ~Client();

    Client(const Client &) = delete;
    Client &operator=(const Client &) = delete;

    /** Connect to a dnastored on 127.0.0.1:@p port. */
    api::Status connect(uint16_t port);

    void close();

    // ------------------------------------------------------ protocol ops
    api::Status ping();
    api::Status put(const std::string &tenant, const std::string &name,
                    const std::vector<uint8_t> &data);
    api::Result<std::vector<uint8_t>> get(const std::string &tenant,
                                          const std::string &name);
    api::Result<std::vector<api::ObjectInfo>> list(
        const std::string &tenant);

    /** Health report JSON (byte-identical to Store::health toJson). */
    api::Result<std::string> health(const std::string &tenant);

    /** Scrub report JSON. */
    api::Result<std::string> scrub(const std::string &tenant,
                                   const api::ScrubOptions &options);

    /** Per-trial success flags, in trial order. */
    api::Result<std::vector<uint8_t>> trial(const std::string &tenant,
                                            uint32_t trials,
                                            uint64_t seed);

    api::Status save(const std::string &tenant);

    // ----------------------------------------------------- raw access
    /**
     * One framed request → one decoded response. The building block
     * of the typed ops, exposed for tests that need the full
     * Response (op echo, wire code, body).
     */
    api::Result<Response> roundTrip(const Request &request);

    /**
     * Write arbitrary bytes (NOT framed) and read one response
     * frame — the corruption tests' hook for sending bit-flipped or
     * truncated frames.
     */
    api::Status sendRaw(const std::vector<uint8_t> &bytes);
    api::Result<Response> readResponse();

  private:
    int fd_ = -1;
    std::vector<uint8_t> readBuf_;
};

} // namespace daemon
} // namespace dnastore

#endif // DNASTORE_DAEMON_CLIENT_HH
