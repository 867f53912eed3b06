/**
 * @file
 * NDJSON job-protocol tests: the strict JSON reader (valid documents,
 * escapes, surrogate pairs, depth/garbage rejection — always
 * Error{kConfig}, never a crash), request decoding into JobSpec, the
 * named-configuration registry, and the response builders. Responses
 * are round-tripped through the same parser, so the writer and reader
 * keep each other honest.
 */

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "predictor/branch_predictor.h"
#include "serve/job_protocol.h"
#include "sim/experiment.h"
#include "sim/run_policy.h"
#include "util/error.h"

namespace confsim {
namespace {

void
expectParseConfigError(const std::string &text)
{
    try {
        parseJson(text);
        FAIL() << "expected Error{kConfig} for: " << text;
    } catch (const Error &e) {
        EXPECT_EQ(e.category(), ErrorCategory::kConfig) << text;
    }
}

TEST(JsonParserTest, ParsesScalarsObjectsAndArrays)
{
    const JsonValue doc = parseJson(
        R"({"s":"hi","n":-12.5e1,"t":true,"f":false,"z":null,)"
        R"("a":[1,2,3],"o":{"inner":"x"}})");
    ASSERT_EQ(doc.kind, JsonValue::Kind::kObject);
    EXPECT_EQ(doc.find("s")->asString("s"), "hi");
    EXPECT_EQ(doc.find("n")->asNumber("n"), -125.0);
    EXPECT_TRUE(doc.find("t")->asBool("t"));
    EXPECT_FALSE(doc.find("f")->asBool("f"));
    EXPECT_EQ(doc.find("z")->kind, JsonValue::Kind::kNull);
    ASSERT_EQ(doc.find("a")->items.size(), 3u);
    EXPECT_EQ(doc.find("a")->items[1].asUnsigned("a[1]"), 2u);
    EXPECT_EQ(doc.find("o")->find("inner")->asString("inner"), "x");
    EXPECT_EQ(doc.find("missing"), nullptr);
}

TEST(JsonParserTest, DecodesEscapesAndSurrogatePairs)
{
    const JsonValue doc = parseJson(
        R"({"esc":"a\"b\\c\/d\n\t\u0041","smile":"\uD83D\uDE00"})");
    EXPECT_EQ(doc.find("esc")->text, "a\"b\\c/d\n\tA");
    EXPECT_EQ(doc.find("smile")->text, "\xF0\x9F\x98\x80");
}

TEST(JsonParserTest, RejectsMalformedInputWithConfigErrors)
{
    expectParseConfigError("");
    expectParseConfigError("{");
    expectParseConfigError("{\"a\":}");
    expectParseConfigError("{\"a\":1,}");
    expectParseConfigError("[1 2]");
    expectParseConfigError("{\"a\":1} trailing");
    expectParseConfigError("nul");
    expectParseConfigError("{\"a\":01}");
    expectParseConfigError("\"unterminated");
    expectParseConfigError("{\"bad\":\"\\u12\"}");
    expectParseConfigError("{\"lone\":\"\\uD83D\"}");

    // Depth bomb: deeper than the parser's recursion cap must error,
    // not overflow the stack.
    std::string deep;
    for (int i = 0; i < 200; ++i)
        deep += "[";
    expectParseConfigError(deep);
}

TEST(JsonParserTest, TypedAccessorsRejectWrongKinds)
{
    const JsonValue doc = parseJson(R"({"s":"x","n":3.5,"neg":-1})");
    EXPECT_THROW(doc.find("s")->asNumber("s"), Error);
    EXPECT_THROW(doc.find("n")->asString("n"), Error);
    EXPECT_THROW(doc.find("n")->asBool("n"), Error);
    EXPECT_THROW(doc.find("n")->asUnsigned("n"), Error);  // not whole
    EXPECT_THROW(doc.find("neg")->asUnsigned("neg"), Error);
}

TEST(JobProtocolTest, DecodesFullSubmitRequest)
{
    const ProtocolRequest request = parseProtocolRequest(
        R"({"op":"submit","tenant":"alice","label":"sweep1",)"
        R"("benchmarks":["groff","jpeg"],"branches":50000,)"
        R"("configs":["ones","resetting"],"predictor":"gshare-small",)"
        R"("error_mode":"continue","max_attempts":3,)"
        R"("watchdog_ms":1000,"checkpoint":true,)"
        R"("checkpoint_every":10000,"resume":true})");
    EXPECT_EQ(request.op, ProtocolRequest::Op::kSubmit);
    EXPECT_EQ(request.spec.tenant, "alice");
    EXPECT_EQ(request.spec.label, "sweep1");
    EXPECT_EQ(request.spec.benchmarks,
              (std::vector<std::string>{"groff", "jpeg"}));
    EXPECT_EQ(request.spec.branches, 50'000u);
    ASSERT_EQ(request.spec.configs.size(), 2u);
    EXPECT_NE(request.spec.configs[0].makePredictor(), nullptr);
    EXPECT_FALSE(request.spec.configs[1].makeEstimators().empty());
    EXPECT_EQ(request.spec.policy.errorMode,
              ErrorMode::kContinueOnError);
    EXPECT_EQ(request.spec.policy.maxAttempts, 3u);
    EXPECT_EQ(request.spec.policy.watchdogMs, 1'000u);
    EXPECT_TRUE(request.spec.checkpoint);
    EXPECT_EQ(request.spec.checkpointEvery, 10'000u);
    EXPECT_TRUE(request.spec.resume);
}

TEST(JobProtocolTest, SubmitDefaultsAreMinimal)
{
    const ProtocolRequest request = parseProtocolRequest(
        R"({"op":"submit","configs":["saturating"]})");
    EXPECT_EQ(request.spec.tenant, "default");
    EXPECT_EQ(request.spec.label, "");
    EXPECT_TRUE(request.spec.benchmarks.empty());
    EXPECT_EQ(request.spec.policy.errorMode, ErrorMode::kFailFast);
    EXPECT_FALSE(request.spec.checkpoint);
    EXPECT_FALSE(request.spec.resume);
}

TEST(JobProtocolTest, DecodesControlRequests)
{
    EXPECT_EQ(parseProtocolRequest(R"({"op":"status"})").op,
              ProtocolRequest::Op::kStatus);
    EXPECT_FALSE(parseProtocolRequest(R"({"op":"status"})").hasId);

    const ProtocolRequest wait =
        parseProtocolRequest(R"({"op":"wait","id":7})");
    EXPECT_EQ(wait.op, ProtocolRequest::Op::kWait);
    EXPECT_TRUE(wait.hasId);
    EXPECT_EQ(wait.id, 7u);

    EXPECT_EQ(parseProtocolRequest(R"({"op":"cancel","id":1})").op,
              ProtocolRequest::Op::kCancel);
    EXPECT_EQ(parseProtocolRequest(
                  R"({"op":"drain","mode":"checkpoint"})")
                  .drainMode,
              DrainMode::kCheckpoint);
    EXPECT_EQ(parseProtocolRequest(R"({"op":"drain"})").drainMode,
              DrainMode::kWait);
    EXPECT_EQ(parseProtocolRequest(R"({"op":"quit"})").op,
              ProtocolRequest::Op::kQuit);
}

TEST(JobProtocolTest, RejectsBadRequestsWithConfigErrors)
{
    const std::vector<std::string> bad = {
        R"({"op":"explode"})",          // unknown op
        R"([1,2,3])",                   // not an object
        R"({"op":"wait"})",             // missing id
        R"({"op":"cancel"})",           // missing id
        R"({"op":"drain","mode":"x"})", // unknown drain mode
        R"({"op":"submit","configs":["no-such-config"]})",
        R"({"op":"submit","configs":["ones"],)"
        R"("predictor":"no-such-predictor"})",
        R"({"op":"submit","configs":["ones"],)"
        R"("error_mode":"maybe"})",
    };
    for (const std::string &line : bad) {
        try {
            parseProtocolRequest(line);
            FAIL() << "expected Error{kConfig} for: " << line;
        } catch (const Error &e) {
            EXPECT_EQ(e.category(), ErrorCategory::kConfig) << line;
        }
    }
}

TEST(JobProtocolTest, RegistryCoversEveryAdvertisedName)
{
    const std::vector<std::string> names = knownConfigNames();
    EXPECT_GE(names.size(), 5u);
    for (const std::string &name : names) {
        const bool native =
            name == "tage-provider" || name == "perceptron-margin";
        for (const char *predictor : {"", "gshare-large", "gshare-small"}) {
            if (native && *predictor != '\0')
                continue; // pairing rules: NativeConfigsNeedTheirPredictor
            const SweepConfiguration config =
                makeNamedConfiguration(name, predictor);
            EXPECT_NE(config.label, "");
            EXPECT_NE(config.makePredictor(), nullptr) << name;
            EXPECT_EQ(config.makeEstimators().size(), 1u) << name;
        }
    }
    EXPECT_THROW(makeNamedConfiguration("bogus", "gshare-large"),
                 Error);
}

TEST(JobProtocolTest, NativeConfigsNeedTheirPredictor)
{
    // Each native estimator reads its own predictor's state; the
    // engine rejects any other predictor as kConfig, and the protocol
    // rejects the request before it becomes a job.
    const std::vector<std::pair<std::string, std::string>> natives = {
        {"tage-provider", "tage"}, {"perceptron-margin", "perceptron"}};
    for (const auto &[name, own] : natives) {
        for (const std::string &predictor :
             {std::string(""), own}) {
            const SweepConfiguration config =
                makeNamedConfiguration(name, predictor);
            EXPECT_EQ(config.makePredictor()->name(),
                      makeNamedPredictorFactory(own)()->name())
                << name << " on '" << predictor << "'";
        }
        for (const char *foreign :
             {"gshare-large", "gshare-small",
              own == "tage" ? "perceptron" : "tage"}) {
            const std::string line =
                R"({"op":"submit","configs":[")" + name +
                R"("],"predictor":")" + foreign + R"("})";
            try {
                parseProtocolRequest(line);
                FAIL() << "expected Error{kConfig} for: " << line;
            } catch (const Error &e) {
                EXPECT_EQ(e.category(), ErrorCategory::kConfig) << line;
            }
        }
    }
}

TEST(JobProtocolTest, ResponsesRoundTripThroughTheParser)
{
    const JsonValue submit = parseJson(protocolSubmitOk(42));
    EXPECT_TRUE(submit.find("ok")->asBool("ok"));
    EXPECT_EQ(submit.find("op")->asString("op"), "submit");
    EXPECT_EQ(submit.find("id")->asUnsigned("id"), 42u);

    const JsonValue ok = parseJson(protocolOk("drain"));
    EXPECT_TRUE(ok.find("ok")->asBool("ok"));
    EXPECT_EQ(ok.find("op")->asString("op"), "drain");

    const JsonValue error = parseJson(protocolError(
        "submit", "queue is full \"now\"", ErrorCategory::kResource));
    EXPECT_FALSE(error.find("ok")->asBool("ok"));
    EXPECT_EQ(error.find("category")->asString("category"),
              "resource");
    EXPECT_EQ(error.find("error")->asString("error"),
              "queue is full \"now\"");

    JobStatus job;
    job.id = 3;
    job.tenant = "alice";
    job.label = "j";
    job.state = JobState::kFailed;
    job.error = "trace decode failed";
    job.errorCategory = ErrorCategory::kTrace;
    job.checkpointed = true;
    const JsonValue status = parseJson(protocolJobStatus("wait", job));
    EXPECT_EQ(status.find("state")->asString("state"), "failed");
    EXPECT_EQ(status.find("category")->asString("category"), "trace");
    EXPECT_TRUE(
        status.find("checkpointed")->asBool("checkpointed"));

    ServiceStatus service;
    service.submitted = 5;
    service.admitted = 4;
    service.rejected = 1;
    TenantStatus tenant;
    tenant.tenant = "alice";
    tenant.admitted = 4;
    service.tenants.push_back(tenant);
    const JsonValue counters =
        parseJson(protocolServiceStatus(service));
    EXPECT_EQ(counters.find("submitted")->asUnsigned("submitted"), 5u);
    EXPECT_EQ(counters.find("rejected")->asUnsigned("rejected"), 1u);
    ASSERT_EQ(counters.find("tenants")->items.size(), 1u);
    EXPECT_EQ(counters.find("tenants")
                  ->items[0]
                  .find("tenant")
                  ->asString("tenant"),
              "alice");
}

} // namespace
} // namespace confsim
