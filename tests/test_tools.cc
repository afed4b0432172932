// Tests for the tooling substrate: flag parsing, JSON serialization, and
// trace export.
#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>

#include "core/flags.h"
#include "core/json.h"
#include "netsim/network.h"
#include "netsim/trace_io.h"

namespace vtp {
namespace {

// --- flags -----------------------------------------------------------------

core::Flags MakeFlags(std::vector<const char*> args) {
  args.insert(args.begin(), "prog");
  return core::Flags(static_cast<int>(args.size()), args.data());
}

TEST(Flags, ParsesKeyValueSwitchesAndPositionals) {
  const core::Flags flags =
      MakeFlags({"run", "--app=zoom", "--duration=12.5", "--json", "--count=42", "extra"});
  ASSERT_EQ(flags.positional().size(), 2u);
  EXPECT_EQ(flags.positional()[0], "run");
  EXPECT_EQ(flags.positional()[1], "extra");
  EXPECT_EQ(flags.Get("app"), "zoom");
  EXPECT_DOUBLE_EQ(flags.GetDouble("duration", 0), 12.5);
  EXPECT_EQ(flags.GetInt("count", 0), 42);
  EXPECT_TRUE(flags.GetBool("json", false));
  EXPECT_FALSE(flags.GetBool("missing", false));
  EXPECT_EQ(flags.Get("missing", "dflt"), "dflt");
}

TEST(Flags, ListsAndBooleans) {
  const core::Flags flags = MakeFlags({"--metros=SF,NY,Chi", "--on=true", "--off=false"});
  const auto list = flags.GetList("metros");
  ASSERT_EQ(list.size(), 3u);
  EXPECT_EQ(list[0], "SF");
  EXPECT_EQ(list[2], "Chi");
  EXPECT_TRUE(flags.GetList("absent").empty());
  EXPECT_TRUE(flags.GetBool("on", false));
  EXPECT_FALSE(flags.GetBool("off", true));
}

TEST(Flags, MalformedNumbersThrow) {
  const core::Flags flags = MakeFlags({"--n=12abc", "--b=maybe"});
  EXPECT_THROW(flags.GetInt("n", 0), std::invalid_argument);
  EXPECT_THROW(flags.GetBool("b", false), std::invalid_argument);
}

TEST(Flags, TracksUnreadFlagsForTypoDetection) {
  const core::Flags flags = MakeFlags({"--used=1", "--typo=1"});
  flags.Get("used");
  const auto unread = flags.UnreadFlags();
  ASSERT_EQ(unread.size(), 1u);
  EXPECT_EQ(unread[0], "typo");
}

// --- JSON ------------------------------------------------------------------

TEST(Json, SerializesNestedStructures) {
  core::JsonWriter w;
  w.BeginObject();
  w.Key("name");
  w.String("vtp");
  w.Key("values");
  w.BeginArray();
  w.Int(1);
  w.Number(2.5);
  w.Bool(true);
  w.Null();
  w.EndArray();
  w.Key("nested");
  w.BeginObject();
  w.Key("x");
  w.Int(-7);
  w.EndObject();
  w.EndObject();
  EXPECT_EQ(w.str(), R"({"name":"vtp","values":[1,2.5,true,null],"nested":{"x":-7}})");
}

TEST(Json, EscapesStrings) {
  core::JsonWriter w;
  w.BeginObject();
  w.Key("s");
  w.String("a\"b\\c\nd\te");
  w.EndObject();
  EXPECT_EQ(w.str(), "{\"s\":\"a\\\"b\\\\c\\nd\\te\"}");
}

TEST(Json, EmptyContainers) {
  core::JsonWriter w;
  w.BeginArray();
  w.BeginObject();
  w.EndObject();
  w.BeginArray();
  w.EndArray();
  w.EndArray();
  EXPECT_EQ(w.str(), "[{},[]]");
}

// --- trace IO ----------------------------------------------------------------

TEST(TraceIo, WritesACapturePinned) {
  net::Simulator sim(1);
  net::Network network(&sim);
  network.BuildBackbone();
  const auto a = network.AddHost("a", "SanFrancisco");
  const auto b = network.AddHost("b", "NewYork");
  network.ComputeRoutes();
  net::Capture capture;
  capture.AttachToLink(network, a, network.AccessRouter(a));
  network.BindUdp(b, 9, [](const net::Packet&) {});
  for (int i = 0; i < 25; ++i) {
    sim.At(net::Millis(10 * i), [&, i] {
      std::vector<std::uint8_t> payload(100 + static_cast<std::size_t>(i));
      payload[0] = static_cast<std::uint8_t>(0x80 | i);  // distinctive prefix
      network.SendUdp(a, 9, b, 9, std::move(payload));
    });
  }
  sim.Run();
  ASSERT_EQ(capture.records().size(), 25u);

  std::stringstream file;
  net::WriteCaptureCsv(capture, file);
  const std::string csv = file.str();
  EXPECT_EQ(csv.substr(0, csv.find('\n')),
            "time_ns,src,dst,src_port,dst_port,wire_bytes,prefix_hex");
  EXPECT_EQ(std::count(csv.begin(), csv.end(), '\n'), 26);
  // The whole text, pinned: one row per record, prefix bytes in hex.
  std::uint64_t fnv = 1469598103934665603ull;
  for (const char c : csv) fnv = (fnv ^ static_cast<std::uint8_t>(c)) * 1099511628211ull;
  EXPECT_EQ(csv.size(), 1464u);
  EXPECT_EQ(fnv, 6893095846603528112ull);
}

}  // namespace
}  // namespace vtp
