#include "daemon/client.hh"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "util/byteio.hh"
#include "util/errno_text.hh"

namespace dnastore {
namespace daemon {

namespace {

bool
writeAll(int fd, const uint8_t *data, size_t n)
{
    size_t done = 0;
    while (done < n) {
        ssize_t w = ::write(fd, data + done, n - done);
        if (w < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        done += size_t(w);
    }
    return true;
}

} // namespace

Client::~Client()
{
    close();
}

void
Client::close()
{
    if (fd_ >= 0) {
        ::close(fd_);
        fd_ = -1;
    }
    readBuf_.clear();
}

api::Status
Client::connect(uint16_t port)
{
    close();
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0)
        return api::Status::unavailable(api::formatMessage(
            "socket() failed: %s", errnoText(errno).c_str()));
    struct sockaddr_in addr;
    std::memset(&addr, 0, sizeof addr);
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port);
    if (::connect(fd_, reinterpret_cast<struct sockaddr *>(&addr),
                  sizeof addr) < 0) {
        api::Status status = api::Status::unavailable(
            api::formatMessage("connect(127.0.0.1:%u) failed: %s",
                               unsigned(port), errnoText(errno).c_str()));
        close();
        return status;
    }
    return api::Status();
}

api::Status
Client::sendRaw(const std::vector<uint8_t> &bytes)
{
    if (fd_ < 0)
        return api::Status::failedPrecondition("client not connected");
    if (!writeAll(fd_, bytes.data(), bytes.size()))
        return api::Status::unavailable(api::formatMessage(
            "write failed: %s", errnoText(errno).c_str()));
    return api::Status();
}

api::Result<Response>
Client::readResponse()
{
    if (fd_ < 0)
        return api::Status::failedPrecondition("client not connected");
    while (true) {
        std::vector<uint8_t> payload;
        size_t consumed = 0;
        std::string error;
        FrameStatus fs =
            extractFrame(readBuf_, &payload, &consumed, &error);
        if (fs == FrameStatus::Bad)
            return api::Status::dataLoss(api::formatMessage(
                "response stream corrupted: %s", error.c_str()));
        if (fs == FrameStatus::Ok) {
            readBuf_.erase(readBuf_.begin(),
                           readBuf_.begin() + std::ptrdiff_t(consumed));
            Response response;
            if (!decodeResponse(payload, &response, &error))
                return api::Status::dataLoss(api::formatMessage(
                    "malformed response: %s", error.c_str()));
            return response;
        }
        uint8_t chunk[4096];
        ssize_t n = ::read(fd_, chunk, sizeof chunk);
        if (n == 0)
            return api::Status::unavailable(
                "server closed the connection");
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return api::Status::unavailable(api::formatMessage(
                "read failed: %s", errnoText(errno).c_str()));
        }
        readBuf_.insert(readBuf_.end(), chunk, chunk + n);
    }
}

api::Result<Response>
Client::roundTrip(const Request &request)
{
    api::Status sent = sendRaw(frame(encodeRequest(request)));
    if (!sent.ok())
        return sent;
    return readResponse();
}

api::Status
Client::ping()
{
    Request request;
    request.op = Op::Ping;
    api::Result<Response> response = roundTrip(request);
    if (!response.ok())
        return response.status();
    return response->status();
}

api::Status
Client::put(const std::string &tenant, const std::string &name,
            const std::vector<uint8_t> &data)
{
    Request request;
    request.op = Op::Put;
    request.tenant = tenant;
    request.name = name;
    request.data = data;
    api::Result<Response> response = roundTrip(request);
    if (!response.ok())
        return response.status();
    return response->status();
}

api::Result<std::vector<uint8_t>>
Client::get(const std::string &tenant, const std::string &name)
{
    Request request;
    request.op = Op::Get;
    request.tenant = tenant;
    request.name = name;
    api::Result<Response> response = roundTrip(request);
    if (!response.ok())
        return response.status();
    api::Status status = response->status();
    if (!status.ok())
        return status;
    return std::move(response->body);
}

api::Result<std::vector<api::ObjectInfo>>
Client::list(const std::string &tenant)
{
    Request request;
    request.op = Op::List;
    request.tenant = tenant;
    api::Result<Response> response = roundTrip(request);
    if (!response.ok())
        return response.status();
    api::Status status = response->status();
    if (!status.ok())
        return status;
    ByteReader r(response->body);
    std::vector<api::ObjectInfo> listing(r.u32());
    for (api::ObjectInfo &info : listing) {
        info.name = r.str(r.u16());
        info.bytes = r.u64();
    }
    if (!r.ok() || r.remaining() != 0)
        return api::Status::dataLoss("malformed listing body");
    return listing;
}

api::Result<std::string>
Client::health(const std::string &tenant)
{
    Request request;
    request.op = Op::Health;
    request.tenant = tenant;
    api::Result<Response> response = roundTrip(request);
    if (!response.ok())
        return response.status();
    api::Status status = response->status();
    if (!status.ok())
        return status;
    return std::string(response->body.begin(), response->body.end());
}

api::Result<std::string>
Client::scrub(const std::string &tenant,
              const api::ScrubOptions &options)
{
    Request request;
    request.op = Op::Scrub;
    request.tenant = tenant;
    request.scrub = options;
    api::Result<Response> response = roundTrip(request);
    if (!response.ok())
        return response.status();
    api::Status status = response->status();
    if (!status.ok())
        return status;
    return std::string(response->body.begin(), response->body.end());
}

api::Result<std::vector<uint8_t>>
Client::trial(const std::string &tenant, uint32_t trials,
              uint64_t seed)
{
    Request request;
    request.op = Op::Trial;
    request.tenant = tenant;
    request.trials = trials;
    request.trialSeed = seed;
    api::Result<Response> response = roundTrip(request);
    if (!response.ok())
        return response.status();
    api::Status status = response->status();
    if (!status.ok())
        return status;
    ByteReader r(response->body);
    std::vector<uint8_t> flags = r.vec(r.u32());
    if (!r.ok() || r.remaining() != 0)
        return api::Status::dataLoss("malformed trial body");
    return flags;
}

api::Status
Client::save(const std::string &tenant)
{
    Request request;
    request.op = Op::Save;
    request.tenant = tenant;
    api::Result<Response> response = roundTrip(request);
    if (!response.ok())
        return response.status();
    return response->status();
}

} // namespace daemon
} // namespace dnastore
