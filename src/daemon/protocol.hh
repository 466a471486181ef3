/**
 * @file
 * The `dnastored` wire protocol: length-prefixed, CRC-framed binary
 * request/response messages over a byte stream (localhost TCP).
 *
 * Framing (all integers little-endian, the util/byteio discipline):
 *
 *   0   4  magic "DSRV"
 *   4   4  payload length N (1 <= N <= kMaxFramePayload)
 *   8   4  CRC-32 over the payload bytes
 *   12  N  payload
 *
 * The CRC is verified BEFORE the payload is decoded — exactly the
 * `.dnapool` section contract — so a bit-flipped frame surfaces as a
 * clean protocol error, never as a misparsed request. A bad magic,
 * an oversized length, or a CRC mismatch poisons the *stream* (the
 * reader cannot resynchronize mid-junk), so the server answers with
 * one DATA_LOSS/INVALID_ARGUMENT error frame and closes the
 * connection; a well-framed payload that fails request decoding only
 * fails that request and keeps the connection.
 *
 * Request payload:
 *
 *   1   opcode (Op)
 *   2   tenant length  + bytes   (tenant namespace; "" only for Ping)
 *   ... op-specific fields (see encodeRequest)
 *
 * Response payload:
 *
 *   1   opcode echo (0xFF for protocol-level errors)
 *   4   wire status code (api/wire.hh)
 *   4   message length + bytes   (Status message; "" on OK)
 *   4   body length    + bytes   (op-specific result; "" on error)
 *
 * Every api::Status code maps onto the wire via statusCodeToWire, so
 * the façade's no-throw error contract extends across the socket.
 */

#ifndef DNASTORE_DAEMON_PROTOCOL_HH
#define DNASTORE_DAEMON_PROTOCOL_HH

#include <cstdint>
#include <string>
#include <vector>

#include "api/health.hh"
#include "api/status.hh"

namespace dnastore {
namespace daemon {

/** Frame magic "DSRV", little-endian. */
inline constexpr uint32_t kFrameMagic = 0x56525344u;

/** Frame header bytes (magic + length + payload CRC). */
inline constexpr size_t kFrameHeaderBytes = 12;

/**
 * Hard payload ceiling. The unit payload capacity tops out well
 * under a MiB at the auto-geometry scales, so anything larger is a
 * corrupted length field, not a real request.
 */
inline constexpr size_t kMaxFramePayload = 8u << 20;

/** Request opcodes. Values are wire contract; append only. */
enum class Op : uint8_t
{
    Ping = 1,   //!< Liveness probe; no tenant state touched.
    Put = 2,    //!< Add one object to the tenant's store.
    Get = 3,    //!< Retrieve one object through the decode path.
    List = 4,   //!< Directory of the tenant's objects.
    Health = 5, //!< Probe-decode health report (JSON body).
    Scrub = 6,  //!< Scrub the tenant's pool (JSON report body).
    Trial = 7,  //!< Monte-Carlo trial batch (per-trial successes).
    Save = 8,   //!< Persist the tenant's pool to disk now.
};

/** The echo opcode of a response to an undecodable frame. */
inline constexpr uint8_t kOpProtocolError = 0xFF;

/** One decoded request. Only the fields of its op are meaningful. */
struct Request
{
    Op op = Op::Ping;
    std::string tenant;

    // Put/Get.
    std::string name;
    std::vector<uint8_t> data; //!< Put payload.

    api::ScrubOptions scrub; //!< Scrub policy.

    // Trial.
    uint32_t trials = 0;
    uint64_t trialSeed = 0;
};

/**
 * The Trial rule, run by Server::dispatch and by the CLI's
 * `client trial` before it connects: 1 to 100,000 trials per request.
 * nullptr when @p trials passes, else the rule text.
 */
const char *checkTrialCount(uint64_t trials);

/** One decoded response. */
struct Response
{
    uint8_t op = kOpProtocolError; //!< Echo of the request op.
    uint32_t wireCode = 0;         //!< api/wire.hh status code.
    std::string message;           //!< Status message ("" on OK).
    std::vector<uint8_t> body;     //!< Op-specific result bytes.

    /** The response's Status, rebuilt from code + message. */
    api::Status status() const;
};

/** Wrap @p payload in a CRC-32 frame. */
std::vector<uint8_t> frame(const std::vector<uint8_t> &payload);

/**
 * Write all of @p bytes to socket @p fd, retrying short writes and
 * EINTR; false (errno set) on failure. Sends with MSG_NOSIGNAL, so a
 * peer that already closed costs this one write an EPIPE instead of
 * raising SIGPIPE, whose default action would kill the process.
 */
bool sendAll(int fd, const std::vector<uint8_t> &bytes);

/** extractFrame outcome. */
enum class FrameStatus
{
    Ok,       //!< One whole frame extracted.
    NeedMore, //!< The buffer holds only a frame prefix so far.
    Bad,      //!< Magic/length/CRC failure; the stream is poisoned.
};

/**
 * Try to pull one frame off the front of @p buf. On Ok, @p payload
 * receives the verified payload and @p consumed the total frame
 * length to drop from the buffer. On Bad, @p error names the
 * failure ("bad frame magic", "frame payload CRC mismatch", ...).
 */
FrameStatus extractFrame(const std::vector<uint8_t> &buf,
                         std::vector<uint8_t> *payload,
                         size_t *consumed, std::string *error);

/** Serialize a request payload (frame it with frame()). */
std::vector<uint8_t> encodeRequest(const Request &request);

/**
 * Decode a request payload. False (with @p error naming the field)
 * on anything malformed: unknown op, truncated fields, a tenant
 * name that is not a single plain path component, oversized names.
 */
bool decodeRequest(const std::vector<uint8_t> &payload, Request *out,
                   std::string *error);

/** Serialize a response payload. */
std::vector<uint8_t> encodeResponse(const Response &response);

/** Decode a response payload (client side). */
bool decodeResponse(const std::vector<uint8_t> &payload, Response *out,
                    std::string *error);

/** A response carrying @p status and no body, echoing @p op. */
Response errorResponse(uint8_t op, const api::Status &status);

/**
 * The per-trial seed schedule of a Trial request: pre-drawn
 * deterministically from the request seed (splitmix64 stream), so
 * the daemon and a direct Store::submit(TrialJob) caller that uses
 * the same helper get bit-identical series.
 */
std::vector<uint64_t> drawTrialSeeds(uint64_t seed, size_t trials);

} // namespace daemon
} // namespace dnastore

#endif // DNASTORE_DAEMON_PROTOCOL_HH
