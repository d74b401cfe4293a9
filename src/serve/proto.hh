/**
 * @file
 * Wire messages for the campaign fabric. Every message is one
 * compact JSON object per line with a `type` member; the full
 * vocabulary and the lease state machine it drives are documented in
 * docs/PROTOCOL.md ("Campaign fabric").
 *
 *   agent -> coordinator:  hello, heartbeat, result
 *   coordinator -> agent:  welcome, assign, shutdown
 *   client -> coordinator: submit
 *   coordinator -> client: report, error
 *
 * Cell specs and run results ride inside these envelopes in their
 * existing lossless JSON forms (super::cellToJson,
 * triage::resultToJson), which is what lets a merged campaign report
 * reproduce the single-host bytes exactly.
 */

#ifndef EDGE_SERVE_PROTO_HH
#define EDGE_SERVE_PROTO_HH

#include <cstdint>
#include <string>

#include "sim/simulator.hh"
#include "super/cell.hh"
#include "triage/jsonio.hh"

namespace edge::serve::proto {

/** Agent introduction: name plus how many cells it runs at once. */
std::string hello(const std::string &name, unsigned slots);

/** Coordinator's reply to hello: assigned id + heartbeat interval. */
std::string welcome(std::uint64_t agentId, std::uint64_t heartbeatMs);

/**
 * Periodic liveness beacon, now carrying agent-side load so the
 * coordinator's health scoring sees queue pressure, not just a
 * pulse: `inflight` cells executing, `queued` finished results not
 * yet flushed to the wire.
 */
std::string heartbeat(std::uint64_t inflight = 0,
                      std::uint64_t queued = 0);

/** Lease a cell to an agent. Timeout/rlimits travel with the cell so
 *  agents need no local configuration. */
std::string assign(std::uint64_t lease, const super::CellSpec &cell,
                   std::uint64_t cellTimeoutMs,
                   std::uint64_t rlimitAsMb,
                   std::uint64_t rlimitCpuSec);

/** Completed cell: the lease it answers, the cell identity, and the
 *  verbatim worker result document. */
std::string result(std::uint64_t lease, std::uint64_t cellHash,
                   const sim::RunResult &r);

std::string shutdown();

/** Campaign submission envelope around a campaign_json document. */
std::string submit(const triage::JsonValue &campaign);

/** Campaign report envelope (coordinator -> client). */
std::string report(triage::JsonValue body);

std::string error(const std::string &message);

/**
 * Admission-control shed: a structured `error` with a
 * `retry_after_ms` hint — the coordinator's submission queue is
 * full; try again after the suggested delay instead of wedging in
 * line.
 */
std::string retryAfter(const std::string &message,
                       std::uint64_t retryAfterMs);

/**
 * Parse one wire line: *doc gets the object, *type its `type`
 * member. False (with *err) on malformed JSON or a typeless message.
 */
bool parse(const std::string &line, triage::JsonValue *doc,
           std::string *type, std::string *err);

} // namespace edge::serve::proto

#endif // EDGE_SERVE_PROTO_HH
