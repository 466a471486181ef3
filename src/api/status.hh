/**
 * @file
 * Status-based error model of the public `dnastore::api` surface.
 *
 * Nothing in `api/` throws across the API boundary: fallible calls
 * return a Status (or a Result<T> carrying a value on success), with
 * a machine-checkable StatusCode and a human-readable message. The
 * codes are a deliberate, stable contract — callers may switch on
 * them — while messages are for logs and terminals and may be
 * reworded between releases.
 *
 * Code semantics:
 *
 *  - Ok                  success; Status::ok() is true.
 *  - InvalidArgument     a parameter failed builder validation
 *                        (rates, geometry, cluster knobs, object
 *                        names). The same checks — and the same
 *                        messages — back the CLI's flag validation.
 *  - NotFound            a named object/resource does not exist.
 *  - AlreadyExists       an object with that name is already stored.
 *  - CapacityExceeded    the payload does not fit one encoding unit.
 *  - FailedPrecondition  the call is valid but not in this state
 *                        (e.g. decoding a unit whose header does not
 *                        parse).
 *  - DataLoss            the channel won: the decoder could not
 *                        reassemble the stored stream.
 *  - Unavailable         no value satisfies the query (e.g. no
 *                        coverage in the searched range decodes
 *                        exactly).
 *  - Internal            an unexpected failure surfaced from the
 *                        lower layers; the message carries the
 *                        original description.
 */

#ifndef DNASTORE_API_STATUS_HH
#define DNASTORE_API_STATUS_HH

#include <cassert>
#include <optional>
#include <string>
#include <utility>

namespace dnastore {
namespace api {

/** Stable error taxonomy of the public API. */
enum class StatusCode
{
    Ok = 0,
    InvalidArgument,
    NotFound,
    AlreadyExists,
    CapacityExceeded,
    FailedPrecondition,
    DataLoss,
    Unavailable,
    Internal,
};

/** Canonical SCREAMING_SNAKE name of a code (stable, log-friendly). */
const char *statusCodeName(StatusCode code);

/** An error code plus a human-readable message; Ok carries neither. */
class Status
{
  public:
    /** Default-constructed Status is success. */
    Status() = default;

    Status(StatusCode code, std::string message)
        : code_(code), message_(std::move(message))
    {}

    static Status
    invalidArgument(std::string msg)
    {
        return Status(StatusCode::InvalidArgument, std::move(msg));
    }
    static Status
    notFound(std::string msg)
    {
        return Status(StatusCode::NotFound, std::move(msg));
    }
    static Status
    alreadyExists(std::string msg)
    {
        return Status(StatusCode::AlreadyExists, std::move(msg));
    }
    static Status
    capacityExceeded(std::string msg)
    {
        return Status(StatusCode::CapacityExceeded, std::move(msg));
    }
    static Status
    failedPrecondition(std::string msg)
    {
        return Status(StatusCode::FailedPrecondition, std::move(msg));
    }
    static Status
    dataLoss(std::string msg)
    {
        return Status(StatusCode::DataLoss, std::move(msg));
    }
    static Status
    unavailable(std::string msg)
    {
        return Status(StatusCode::Unavailable, std::move(msg));
    }
    static Status
    internal(std::string msg)
    {
        return Status(StatusCode::Internal, std::move(msg));
    }

    bool ok() const { return code_ == StatusCode::Ok; }
    StatusCode code() const { return code_; }
    const std::string &message() const { return message_; }

    /** "OK" or "INVALID_ARGUMENT: <message>". */
    std::string toString() const;

  private:
    StatusCode code_ = StatusCode::Ok;
    std::string message_;
};

/**
 * A Status or a value: the return type of fallible API calls that
 * produce something. Constructible implicitly from either a T or a
 * non-Ok Status, so `return Status::notFound(...)` and
 * `return std::move(bytes)` both work from the same function.
 */
template <typename T>
class Result
{
  public:
    /** Success. */
    Result(T value) : value_(std::move(value)) {}

    /** Failure; @p status must not be Ok (asserted). */
    Result(Status status) : status_(std::move(status))
    {
        assert(!status_.ok() && "Result error ctor needs a non-Ok Status");
        // An Ok status without a value would make ok() lie; demote it
        // so release builds stay safe.
        if (status_.ok())
            status_ = Status::internal("Result constructed from Ok status "
                                       "without a value");
    }

    bool ok() const { return value_.has_value(); }
    const Status &status() const { return status_; }

    /** The value; only meaningful when ok(). */
    T &value() { return assertOk(), *value_; }
    const T &value() const { return assertOk(), *value_; }

    T &operator*() { return value(); }
    const T &operator*() const { return value(); }
    T *operator->() { return &value(); }
    const T *operator->() const { return &value(); }

  private:
    void
    assertOk() const
    {
        assert(value_.has_value() && "Result::value() on an error Result");
    }

    Status status_;
    std::optional<T> value_;
};

} // namespace api
} // namespace dnastore

#endif // DNASTORE_API_STATUS_HH
