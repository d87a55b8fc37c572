#include "http/device_db.h"

#include <gtest/gtest.h>

#include <cctype>
#include <ostream>
#include <string>

#include "http/method.h"

namespace jsoncdn::http {
namespace {

struct DeviceCase {
  const char* ua;
  DeviceType device;
  AgentKind agent;
};

// Prints a case as its text with every run of non-alphanumerics folded to
// '_' ("curl/7.58.0" -> curl_7_58_0).
// gtest_discover_tests builds the ctest name from this, so names are
// readable and stable across builds instead of a byte dump of the pointer.
// The 32-character cap keeps every ctest name under 100 columns.
std::string identifier(const char* text) {
  std::string out;
  for (const char* c = text; *c != '\0' && out.size() < 32; ++c) {
    if (std::isalnum(static_cast<unsigned char>(*c)) != 0) {
      out.push_back(*c);
    } else if (!out.empty() && out.back() != '_') {
      out.push_back('_');
    }
  }
  if (!out.empty() && out.back() == '_') out.pop_back();
  return out.empty() ? "empty" : out;
}

void PrintTo(const DeviceCase& c, std::ostream* os) { *os << identifier(c.ua); }

class ClassifyDeviceTest : public ::testing::TestWithParam<DeviceCase> {};

TEST_P(ClassifyDeviceTest, MatchesExpectedClassification) {
  const auto c = classify_device(GetParam().ua);
  EXPECT_EQ(c.device, GetParam().device) << GetParam().ua;
  EXPECT_EQ(c.agent, GetParam().agent) << GetParam().ua;
}

INSTANTIATE_TEST_SUITE_P(
    RealWorldAgents, ClassifyDeviceTest,
    ::testing::Values(
        // Mobile browsers.
        DeviceCase{"Mozilla/5.0 (iPhone; CPU iPhone OS 12_4 like Mac OS X) "
                   "AppleWebKit/605.1.15 (KHTML, like Gecko) Version/12.1.2 "
                   "Mobile/15E148 Safari/604.1",
                   DeviceType::kMobile, AgentKind::kBrowser},
        DeviceCase{"Mozilla/5.0 (Linux; Android 9; SM-G960F) "
                   "AppleWebKit/537.36 (KHTML, like Gecko) "
                   "Chrome/76.0.3809.132 Mobile Safari/537.36",
                   DeviceType::kMobile, AgentKind::kBrowser},
        // Desktop browsers.
        DeviceCase{"Mozilla/5.0 (Windows NT 10.0; Win64; x64) "
                   "AppleWebKit/537.36 (KHTML, like Gecko) Chrome/76.0.3809.100 "
                   "Safari/537.36",
                   DeviceType::kDesktop, AgentKind::kBrowser},
        DeviceCase{"Mozilla/5.0 (Macintosh; Intel Mac OS X 10_14_6) "
                   "AppleWebKit/605.1.15 (KHTML, like Gecko) Version/12.1.2 "
                   "Safari/605.1.15",
                   DeviceType::kDesktop, AgentKind::kBrowser},
        DeviceCase{"Mozilla/5.0 (X11; Linux x86_64; rv:68.0) Gecko/20100101 "
                   "Firefox/68.0",
                   DeviceType::kDesktop, AgentKind::kBrowser},
        // Native mobile apps.
        DeviceCase{"NewsReader/5.2.1 (iPhone; iOS 12.4.1; Scale/3.00)",
                   DeviceType::kMobile, AgentKind::kNativeApp},
        DeviceCase{"Feedly/61.0 CFNetwork/978.0.7 Darwin/18.7.0",
                   DeviceType::kMobile, AgentKind::kNativeApp},
        DeviceCase{"CFNetwork/978.0.7 Darwin/18.7.0", DeviceType::kMobile,
                   AgentKind::kLibrary},
        // Embedded devices.
        DeviceCase{"Mozilla/5.0 (PlayStation 4 6.72) AppleWebKit/605.1.15 "
                   "(KHTML, like Gecko)",
                   DeviceType::kEmbedded, AgentKind::kNativeApp},
        DeviceCase{"FitnessTracker/6.0.1 (AppleWatch4,4; watchOS 5.3)",
                   DeviceType::kEmbedded, AgentKind::kNativeApp},
        DeviceCase{"StreamPlayer/4.1 (SMART-TV; Tizen 5.0) AppleWebKit/537.36",
                   DeviceType::kEmbedded, AgentKind::kNativeApp},
        DeviceCase{"Roku/DVP-9.10 (519.10E04111A)", DeviceType::kEmbedded,
                   AgentKind::kNativeApp},
        // Libraries / scripts.
        DeviceCase{"curl/7.58.0", DeviceType::kUnknown, AgentKind::kLibrary},
        DeviceCase{"python-requests/2.22.0", DeviceType::kUnknown,
                   AgentKind::kLibrary},
        DeviceCase{"Go-http-client/1.1", DeviceType::kUnknown,
                   AgentKind::kLibrary},
        DeviceCase{"okhttp/3.12.1", DeviceType::kMobile, AgentKind::kLibrary},
        DeviceCase{"Dalvik/2.1.0 (Linux; U; Android 8.1.0; Pixel 2)",
                   DeviceType::kMobile, AgentKind::kLibrary},
        // Unknown.
        DeviceCase{"", DeviceType::kUnknown, AgentKind::kUnknown},
        DeviceCase{"prod-fetcher-internal", DeviceType::kUnknown,
                   AgentKind::kUnknown}));

TEST(ClassifyDevice, EmbeddedBeatsDesktopTokens) {
  // Console UAs often carry Mozilla/WebKit tokens; embedded must win.
  const auto c = classify_device(
      "Mozilla/5.0 (PlayStation 4 6.72) AppleWebKit/605.1.15 (KHTML, like "
      "Gecko)");
  EXPECT_EQ(c.device, DeviceType::kEmbedded);
  // The paper observes no browser traffic from embedded devices.
  EXPECT_FALSE(c.is_browser());
}

TEST(ClassifyDevice, MissingUaIsUnknown) {
  const auto c = classify_device("");
  EXPECT_EQ(c.device, DeviceType::kUnknown);
  EXPECT_EQ(c.agent, AgentKind::kUnknown);
}

TEST(ClassifyDevice, OsExtraction) {
  EXPECT_EQ(classify_device("NewsReader/5.2.1 (iPhone; iOS 12)").os, "ios");
  EXPECT_EQ(classify_device(
                "Mozilla/5.0 (Linux; Android 9) Chrome/76.0 Mobile Safari")
                .os,
            "android");
  EXPECT_EQ(classify_device("Mozilla/5.0 (Windows NT 10.0; Win64; x64) "
                            "AppleWebKit/537.36 Chrome/76.0 Safari/537.36")
                .os,
            "windows");
}

TEST(ToStringNames, AreStable) {
  EXPECT_EQ(to_string(DeviceType::kMobile), "mobile");
  EXPECT_EQ(to_string(DeviceType::kEmbedded), "embedded");
  EXPECT_EQ(to_string(AgentKind::kBrowser), "browser");
  EXPECT_EQ(to_string(AgentKind::kNativeApp), "native-app");
}

TEST(MethodHelpers, UploadDownloadSplit) {
  EXPECT_TRUE(is_download(Method::kGet));
  EXPECT_TRUE(is_download(Method::kHead));
  EXPECT_TRUE(is_upload(Method::kPost));
  EXPECT_TRUE(is_upload(Method::kPut));
  EXPECT_TRUE(is_upload(Method::kPatch));
  EXPECT_FALSE(is_upload(Method::kGet));
  EXPECT_FALSE(is_download(Method::kDelete));
}

TEST(MethodParse, RoundTripsAllMethods) {
  for (const auto m : {Method::kGet, Method::kPost, Method::kPut,
                       Method::kDelete, Method::kHead, Method::kOptions,
                       Method::kPatch}) {
    const auto parsed = parse_method(to_string(m));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, m);
  }
}

TEST(MethodParse, CaseSensitivePerRfc) {
  EXPECT_FALSE(parse_method("get").has_value());
  EXPECT_FALSE(parse_method("Get").has_value());
  EXPECT_FALSE(parse_method("FETCH").has_value());
}

}  // namespace
}  // namespace jsoncdn::http
