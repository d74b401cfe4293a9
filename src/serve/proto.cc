#include "serve/proto.hh"

#include "triage/result_json.hh"

namespace edge::serve::proto {

using triage::JsonValue;

namespace {

JsonValue
envelope(const char *type)
{
    JsonValue o = JsonValue::object();
    o.set("type", JsonValue::str(type));
    return o;
}

} // namespace

std::string
hello(const std::string &name, unsigned slots)
{
    JsonValue o = envelope("hello");
    o.set("name", JsonValue::str(name));
    o.set("slots", JsonValue::u64(slots));
    return o.dumpCompact();
}

std::string
welcome(std::uint64_t agentId, std::uint64_t heartbeatMs)
{
    JsonValue o = envelope("welcome");
    o.set("agent", JsonValue::u64(agentId));
    o.set("heartbeat_ms", JsonValue::u64(heartbeatMs));
    return o.dumpCompact();
}

std::string
heartbeat(std::uint64_t inflight, std::uint64_t queued)
{
    JsonValue o = envelope("heartbeat");
    if (inflight)
        o.set("inflight", JsonValue::u64(inflight));
    if (queued)
        o.set("queued", JsonValue::u64(queued));
    return o.dumpCompact();
}

std::string
assign(std::uint64_t lease, const super::CellSpec &cell,
       std::uint64_t cellTimeoutMs, std::uint64_t rlimitAsMb,
       std::uint64_t rlimitCpuSec)
{
    JsonValue o = envelope("assign");
    o.set("lease", JsonValue::u64(lease));
    o.set("cell", super::cellToJson(cell));
    o.set("timeout_ms", JsonValue::u64(cellTimeoutMs));
    if (rlimitAsMb)
        o.set("rlimit_as_mb", JsonValue::u64(rlimitAsMb));
    if (rlimitCpuSec)
        o.set("rlimit_cpu_sec", JsonValue::u64(rlimitCpuSec));
    return o.dumpCompact();
}

std::string
result(std::uint64_t lease, std::uint64_t cellHash,
       const sim::RunResult &r)
{
    JsonValue o = envelope("result");
    o.set("lease", JsonValue::u64(lease));
    o.set("cell", JsonValue::u64(cellHash));
    o.set("result", triage::resultToJson(r));
    return o.dumpCompact();
}

std::string
shutdown()
{
    return envelope("shutdown").dumpCompact();
}

std::string
submit(const JsonValue &campaign)
{
    JsonValue o = envelope("submit");
    o.set("campaign", campaign);
    return o.dumpCompact();
}

std::string
report(JsonValue body)
{
    JsonValue o = envelope("report");
    o.set("report", std::move(body));
    return o.dumpCompact();
}

std::string
error(const std::string &message)
{
    JsonValue o = envelope("error");
    o.set("message", JsonValue::str(message));
    return o.dumpCompact();
}

std::string
retryAfter(const std::string &message, std::uint64_t retryAfterMs)
{
    JsonValue o = envelope("error");
    o.set("message", JsonValue::str(message));
    o.set("retry_after_ms", JsonValue::u64(retryAfterMs));
    return o.dumpCompact();
}

bool
parse(const std::string &line, JsonValue *doc, std::string *type,
      std::string *err)
{
    if (!JsonValue::parse(line, doc, err))
        return false;
    if (!doc->isObject()) {
        if (err)
            *err = "message is not a JSON object";
        return false;
    }
    *type = doc->getString("type");
    if (type->empty()) {
        if (err)
            *err = "message has no type";
        return false;
    }
    return true;
}

} // namespace edge::serve::proto
