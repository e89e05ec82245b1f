// Tests for the virtual clock and the device/network/MDS cost models,
// including the Table III calibration shapes.
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <thread>

#include "compress/registry.hpp"
#include "simnet/codec_speed.hpp"
#include "simnet/models.hpp"
#include "simnet/virtual_clock.hpp"

namespace fanstore::simnet {
namespace {

TEST(VirtualClockTest, AdvanceAndReadback) {
  VirtualClock clock;
  EXPECT_DOUBLE_EQ(clock.now_sec(), 0.0);
  clock.advance_sec(1.5);
  clock.advance_sec(0.25);
  EXPECT_NEAR(clock.now_sec(), 1.75, 1e-9);
  clock.advance_sec(-5);  // negative charges are ignored
  EXPECT_NEAR(clock.now_sec(), 1.75, 1e-9);
  clock.advance_to_sec(1.0);  // cannot go backwards
  EXPECT_NEAR(clock.now_sec(), 1.75, 1e-9);
  clock.advance_to_sec(3.0);
  EXPECT_NEAR(clock.now_sec(), 3.0, 1e-9);
  clock.reset();
  EXPECT_DOUBLE_EQ(clock.now_sec(), 0.0);
}

TEST(VirtualClockTest, ConcurrentChargesAccumulate) {
  VirtualClock clock;
  std::vector<std::thread> ts;
  for (int i = 0; i < 8; ++i) {
    ts.emplace_back([&] {
      for (int k = 0; k < 1000; ++k) clock.advance_sec(1e-6);
    });
  }
  for (auto& t : ts) t.join();
  EXPECT_NEAR(clock.now_sec(), 8e-3, 1e-5);
}

TEST(NetworkModelTest, LatencyAndBandwidth) {
  const NetworkModel net = fdr_infiniband();
  // Small message: latency dominated.
  EXPECT_NEAR(net.transfer_time(0, 4), net.latency_s, 1e-12);
  // Large message: bandwidth dominated; 7 GB/s-ish for FDR.
  const double t = net.transfer_time(700 * 1000 * 1000, 4);
  EXPECT_GT(t, 0.09);
  EXPECT_LT(t, 0.2);
  // Contention: more nodes -> lower effective bandwidth.
  EXPECT_GT(net.effective_bandwidth(2), net.effective_bandwidth(512));
}

TEST(StorageModelTest, TableThreeShape) {
  // Table III read throughput ordering at every size:
  //   SSD > FanStore > FUSE > Lustre, with FanStore at 71-99% of raw SSD.
  const StorageModel ssd = ssd_storage();
  const StorageModel fan = fanstore_storage();
  const StorageModel fuse = fuse_ssd_storage();
  const StorageModel lustre = lustre_storage();
  for (const std::size_t size : {128u * 1024u, 512u * 1024u, 2048u * 1024u,
                                 8192u * 1024u}) {
    const double t_ssd = ssd.file_read_time(size);
    const double t_fan = fan.file_read_time(size);
    const double t_fuse = fuse.file_read_time(size);
    const double t_lustre = lustre.file_read_time(size);
    EXPECT_LT(t_ssd, t_fan) << size;
    EXPECT_LT(t_fan, t_fuse) << size;
    EXPECT_LT(t_fuse, t_lustre) << size;
    EXPECT_GT(t_ssd / t_fan, 0.55) << size;  // FanStore close to raw SSD
    EXPECT_GT(t_fuse / t_fan, 2.0) << size;  // paper: 2.9-4.4x vs FUSE
  }
  // Absolute calibration at 128 KB: FanStore ~28k files/s (Table III).
  const double files_per_s = 1.0 / fan.file_read_time(128 * 1024);
  EXPECT_GT(files_per_s, 15000);
  EXPECT_LT(files_per_s, 45000);
}

TEST(MetadataServerTest, SaturationMeltdown) {
  const MetadataServerModel mds;
  EXPECT_NEAR(mds.capacity_ops(), 98000, 1000);
  const double light = mds.response_time(1000);    // rho = 0.01
  const double heavy = mds.response_time(90000);   // rho = 0.9
  const double melt = mds.response_time(200000);   // rho >> 1
  EXPECT_LT(light, 100e-6);
  EXPECT_GT(heavy, light * 2);
  EXPECT_GE(melt, 10.0);  // the "ran for an hour" regime (§VII-F)
}

TEST(ClusterSpecTest, PaperPlatforms) {
  EXPECT_EQ(gtx_cluster().max_nodes, 16);
  EXPECT_EQ(v100_cluster().max_nodes, 4);
  EXPECT_EQ(cpu_cluster().max_nodes, 512);
  EXPECT_NEAR(gtx_cluster().local_capacity_bytes, 60e9, 1e9);
  EXPECT_EQ(v100_cluster().local_storage.name, "ramdisk");
}

TEST(CodecSpeedTest, CalibratesAndOrdersCodecs) {
  const auto& reg = compress::Registry::instance();
  const auto fast = decompress_bps(reg.id_by_name("lzsse8"));
  const auto slow = decompress_bps(reg.id_by_name("lzma"));
  // The committed table does not depend on the build, so the ordering is
  // checked under sanitizers too.
  EXPECT_GT(fast, 200e6);     // byte-LZ: hundreds of MB/s or more
  EXPECT_GT(fast, slow * 5);  // range coder is far slower
  // Derived per-byte cost is consistent.
  EXPECT_NEAR(decompress_seconds(reg.id_by_name("lzsse8"), 1 << 20),
              (1 << 20) / fast, 1e-9);
  // A one-chunk frame costs exactly the flat decode, on any thread count.
  for (const char* name : {"lzsse8", "lzma"}) {
    const auto id = reg.id_by_name(name);
    for (const std::size_t threads : {1u, 4u}) {
      EXPECT_EQ(chunked_decompress_seconds(id, 100000, 1, threads),
                decompress_seconds(id, 100000))
          << name << " threads=" << threads;
    }
  }
}

TEST(CodecSpeedTest, EveryRegisteredCodecHasExactlyOneRow) {
  const auto& reg = compress::Registry::instance();
  std::map<std::string, int> rows;
  for (const CodecSpeed& row : codec_speeds()) {
    ++rows[std::string(row.name)];
    // Each row's name resolves to a registered id whose exact name it is.
    const compress::Compressor* codec = reg.by_name(row.name);
    ASSERT_NE(codec, nullptr) << row.name;
    EXPECT_EQ(codec->name(), row.name);
    EXPECT_EQ(decompress_bps(reg.id_of(*codec)), row.decompress_bps) << row.name;
    EXPECT_GT(row.decompress_bps, 0) << row.name;
  }
  for (const auto& entry : reg.all()) {
    EXPECT_EQ(rows[entry.codec->name()], 1) << entry.codec->name();
  }
  EXPECT_EQ(rows.size(), reg.all().size());
}

TEST(CodecSpeedTest, UnknownIdThrows) {
  EXPECT_THROW(decompress_bps(60000), std::invalid_argument);
  // Chunked ids are charged through their inner codec, never looked up.
  const auto chunked = compress::Registry::instance().id_by_name("chunked-64k+lz4");
  EXPECT_THROW(decompress_bps(chunked), std::invalid_argument);
}

}  // namespace
}  // namespace fanstore::simnet
