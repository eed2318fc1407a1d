#include "simulation/directory.h"

#include <gtest/gtest.h>

namespace logmine::sim {
namespace {

ServiceEntry Entry(std::string id) {
  ServiceEntry entry;
  entry.id = std::move(id);
  entry.root_url = "http://srv01.hug.ch:9980/x";
  entry.server_host = "srv01.hug.ch";
  entry.num_replicas = 2;
  return entry;
}

TEST(ServiceDirectoryTest, AddAndFind) {
  ServiceDirectory dir;
  ASSERT_TRUE(dir.Add(Entry("DPINOTIFICATION")).ok());
  ASSERT_TRUE(dir.Add(Entry("UPSRV2")).ok());
  EXPECT_EQ(dir.size(), 2u);
  auto found = dir.FindById("UPSRV2");
  ASSERT_TRUE(found.ok());
  EXPECT_EQ(found.value(), 1u);
  EXPECT_FALSE(dir.FindById("UPSRV").ok());
}

TEST(ServiceDirectoryTest, FindIsCaseInsensitive) {
  ServiceDirectory dir;
  ASSERT_TRUE(dir.Add(Entry("DPINOTIFICATION")).ok());
  EXPECT_TRUE(dir.FindById("dpinotification").ok());
  EXPECT_TRUE(dir.FindById("DpiNotification").ok());
}

TEST(ServiceDirectoryTest, RejectsDuplicatesAndEmptyIds) {
  ServiceDirectory dir;
  ASSERT_TRUE(dir.Add(Entry("A")).ok());
  EXPECT_FALSE(dir.Add(Entry("A")).ok());
  EXPECT_FALSE(dir.Add(Entry("a")).ok());  // case-insensitive key
  EXPECT_FALSE(dir.Add(Entry("")).ok());
  EXPECT_EQ(dir.size(), 1u);
}

TEST(ServiceDirectoryTest, ToXmlWritesEveryField) {
  ServiceDirectory dir;
  ASSERT_TRUE(dir.Add(Entry("DPINOTIFICATION")).ok());
  ASSERT_TRUE(dir.Add(Entry("UPSRV2")).ok());
  const std::string xml = dir.ToXml();
  EXPECT_NE(xml.find("  <group id=\"DPINOTIFICATION\" "
                     "url=\"http://srv01.hug.ch:9980/x\" "
                     "server=\"srv01.hug.ch\" replicas=\"2\"/>\n"),
            std::string::npos)
      << xml;
  EXPECT_LT(xml.find("DPINOTIFICATION"), xml.find("UPSRV2"));
}

TEST(ServiceDirectoryTest, XmlShapeMatchesHugStyle) {
  ServiceDirectory dir;
  ASSERT_TRUE(dir.Add(Entry("X")).ok());
  const std::string xml = dir.ToXml();
  EXPECT_EQ(xml.rfind("<directory>\n", 0), 0u);
  EXPECT_NE(xml.find("<group id=\"X\""), std::string::npos);
  EXPECT_EQ(xml.substr(xml.size() - 13), "</directory>\n");
}

TEST(ServiceDirectoryTest, EmptyDirectoryIsTheBareRoot) {
  EXPECT_EQ(ServiceDirectory().ToXml(), "<directory>\n</directory>\n");
}

}  // namespace
}  // namespace logmine::sim
