/**
 * @file
 * The sweep server's NDJSON job protocol: one JSON object per line in,
 * one JSON object per line out.
 *
 * Requests ({"op": ...}):
 *
 *   {"op":"submit","tenant":"t","label":"j1",
 *    "benchmarks":["gcc","groff"],"branches":100000,
 *    "configs":["ones","saturating"],"predictor":"gshare-small",
 *    "error_mode":"continue","max_attempts":2,"watchdog_ms":0,
 *    "checkpoint":true,"checkpoint_every":50000,"resume":false}
 *   {"op":"status"}            — service counters
 *   {"op":"status","id":1}     — one job
 *   {"op":"wait","id":1}       — block until the job settles
 *   {"op":"cancel","id":1}
 *   {"op":"drain","mode":"wait"|"cancel"|"checkpoint"}
 *   {"op":"quit"}              — drain (per --drain-mode) and exit
 *
 * Responses always carry "ok" and echo "op"; failures carry "error"
 * and the taxonomy "category" so a client can distinguish shed load
 * (resource) from bad requests (config) from drain (cancelled).
 *
 * The estimator grid is named, not structural: "configs" entries pick
 * from a fixed registry of paper-canonical configurations (see
 * knownConfigNames()), which keeps the wire format free of factory
 * closures and makes every submitted grid reproducible from its name.
 *
 * The parser is a strict, minimal recursive-descent JSON reader
 * (obs/json.h only writes JSON); malformed input raises
 * Error{kConfig} and never tears the server down.
 */

#ifndef CONFSIM_SERVE_JOB_PROTOCOL_H
#define CONFSIM_SERVE_JOB_PROTOCOL_H

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "serve/job.h"
#include "serve/sweep_service.h"

namespace confsim {

/** A parsed JSON value (strict subset of RFC 8259, UTF-8). */
struct JsonValue
{
    enum class Kind : std::uint8_t
    {
        kNull = 0,
        kBool,
        kNumber,
        kString,
        kArray,
        kObject,
    };

    Kind kind = Kind::kNull;
    bool boolean = false;
    double number = 0.0;
    std::string text; //!< kString payload
    std::vector<JsonValue> items; //!< kArray payload
    std::vector<std::pair<std::string, JsonValue>>
        members; //!< kObject payload, in input order

    /** @return the member named @p key, or null (kObject only). */
    const JsonValue *find(const std::string &key) const;

    /** Typed accessors with defaults; throw Error{kConfig} when the
     *  value is present but of the wrong kind. */
    std::string asString(const std::string &what) const;
    double asNumber(const std::string &what) const;
    std::uint64_t asUnsigned(const std::string &what) const;
    bool asBool(const std::string &what) const;
};

/**
 * Parse exactly one JSON document from @p text (surrounding
 * whitespace allowed, trailing garbage rejected).
 * @throws Error{kConfig} on malformed input.
 */
JsonValue parseJson(const std::string &text);

/** The registry of named sweep configurations. */
std::vector<std::string> knownConfigNames();

/**
 * Build the registry configuration named @p name over the predictor
 * named @p predictor (any knownPredictorNames() entry:
 * "gshare-large", "gshare-small", "tage", "perceptron"). An empty
 * @p predictor defaults to the config's natural pairing — "tage" for
 * "tage-provider", "perceptron" for "perceptron-margin",
 * "gshare-large" otherwise.
 * @throws Error{kConfig} on an unknown name, or when a native-confidence
 *         config is paired with any predictor but its own.
 */
SweepConfiguration
makeNamedConfiguration(const std::string &name,
                       const std::string &predictor);

/** One decoded protocol request. */
struct ProtocolRequest
{
    enum class Op : std::uint8_t
    {
        kSubmit = 0,
        kStatus,
        kWait,
        kCancel,
        kDrain,
        kQuit,
    };

    Op op = Op::kStatus;
    std::string opName;    //!< raw "op" string (echoed in replies)
    JobSpec spec;          //!< kSubmit only
    bool hasId = false;    //!< kStatus with "id" / kWait / kCancel
    std::uint64_t id = 0;
    DrainMode drainMode = DrainMode::kWait; //!< kDrain only
};

/**
 * Decode one request line.
 * @throws Error{kConfig} on malformed JSON, an unknown op, a missing
 *         required field, or an unknown config/predictor name.
 */
ProtocolRequest parseProtocolRequest(const std::string &line);

/** {"ok":false,...} carrying the error text and taxonomy category. */
std::string protocolError(const std::string &op,
                          const std::string &message,
                          ErrorCategory category);

/** {"ok":true,"op":"submit","id":N} */
std::string protocolSubmitOk(std::uint64_t id);

/** {"ok":true,"op":<op>,...} for one job's status snapshot. */
std::string protocolJobStatus(const std::string &op,
                              const JobStatus &status);

/** {"ok":true,"op":"status",...} for the service counters. */
std::string protocolServiceStatus(const ServiceStatus &status);

/** {"ok":true,"op":<op>} */
std::string protocolOk(const std::string &op);

} // namespace confsim

#endif // CONFSIM_SERVE_JOB_PROTOCOL_H
