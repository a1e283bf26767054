// E-L3 — Lesson 3: "Deploying integrity protections in industrial
// environments faces obstacles." Measures the cost of the integrity
// stack — secure+measured boot, TPM seal/unseal, FIM baseline/check as a
// function of monitored-file count, LUKS passphrase-KDF unlock — and
// demonstrates the Clevis-unavailable fallback path (manual passphrase)
// that old ONL userspace forces. Each row is the median [q1, q3] time per
// call over kRowReps timed blocks.
#include <cstdio>
#include <string>

#include "bench_util.hpp"

#include "genio/core/platform.hpp"
#include "genio/os/luks.hpp"

namespace gc = genio::common;
namespace cr = genio::crypto;
namespace os = genio::os;
namespace gb = genio::bench;

int main() {
  // The Lesson 3 operational contrast, before the timing numbers.
  std::printf("=== E-L3: integrity protections on an old industrial distro ===\n");
  gc::Rng rng(1);
  os::Tpm tpm(gc::to_bytes("tpm"));
  (void)tpm.extend(os::kPcrKernel, gc::to_bytes("kernel"));
  auto vol = os::LuksVolume::create(gc::to_bytes("pw"), gc::to_bytes("data"), rng, 10000);

  const auto onl_bind = vol.bind_tpm(tpm, {{os::kPcrKernel}}, gc::to_bytes("pw"),
                                     /*clevis_available=*/false);
  std::printf("ONL (Debian 10, no Clevis libs): bind -> %s\n",
              onl_bind.to_string().c_str());
  std::printf("  => in-field OLT waits for manual passphrase at every boot "
              "(impractical, per Lesson 3)\n");

  const auto fixed_bind = vol.bind_tpm(tpm, {{os::kPcrKernel}}, gc::to_bytes("pw"),
                                       /*clevis_available=*/true);
  std::printf("after manual dependency backport : bind -> %s, TPM auto-unlock %s\n\n",
              fixed_bind.to_string().c_str(),
              vol.unlock_with_tpm(tpm).ok() ? "works" : "fails");

  {
    genio::core::GenioPlatform platform({});
    const auto per_call =
        gb::time_calls(1, gb::kRowReps, 3, [&] { gb::keep(platform.boot_host().booted); });
    gb::print_row("secure_measured_boot", per_call, "3-stage verified+measured boot");
  }

  {
    os::Tpm sealer(gc::to_bytes("seed"));
    (void)sealer.extend(0, gc::to_bytes("fw"));
    const auto per_call = gb::time_calls(10, gb::kRowReps, 100, [&] {
      const auto blob = sealer.seal(gc::to_bytes("disk-encryption-key"), {{0}});
      gb::keep(sealer.unseal(blob).ok());
    });
    gb::print_row("tpm_seal_unseal", per_call);
  }

  for (const int file_count : {10, 100, 1000}) {
    os::Host host = os::make_stock_onl_host("olt-1");
    for (int i = 0; i < file_count; ++i) {
      host.write_file("/etc/conf.d/file-" + std::to_string(i),
                      "setting-" + std::to_string(i), "root", 0644);
    }
    auto key = cr::SigningKey::generate(gc::to_bytes("fim"), 4);
    os::FileIntegrityMonitor fim(os::default_olt_fim_rules());
    (void)fim.init_baseline(host, key);
    const auto per_call = gb::time_calls(1, gb::kRowReps, file_count >= 1000 ? 2 : 10, [&] {
      gb::keep(fim.check(host, key.public_key()).baseline_authentic);
    });
    gb::print_row("fim_check/" + std::to_string(file_count), per_call,
                  gb::rate(static_cast<double>(fim.baseline_size()), per_call, "files", 0));
  }

  for (const int iterations : {1000, 10000, 100000}) {
    gc::Rng kdf_rng(1);
    const auto locked = os::LuksVolume::create(gc::to_bytes("pw"), gc::to_bytes("data"),
                                               kdf_rng, iterations);
    const auto per_call = gb::time_calls(1, gb::kRowReps, iterations >= 100000 ? 1 : 5, [&] {
      gb::keep(locked.unlock(gc::to_bytes("pw")).ok());
    });
    gb::print_row("luks_passphrase_unlock/" + std::to_string(iterations), per_call,
                  "KDF iterations: " + std::to_string(iterations));
  }

  {
    const auto per_call =
        gb::time_calls(10, gb::kRowReps, 100, [&] { gb::keep(vol.unlock_with_tpm(tpm).ok()); });
    gb::print_row("luks_tpm_auto_unlock", per_call, "Clevis-style PCR-bound unlock (no operator)");
  }
  return 0;
}
