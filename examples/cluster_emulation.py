"""Master/slave cluster emulation with byte-level accounting (Sec. V-C).

Runs a federation, replays its finished history through the cluster
emulation -- the stand-in for the paper's 30-node EC2 testbed -- and prints the
per-message-kind traffic breakdown, simulated wall-clock, and the
relevance-check overhead.  Also shows the mobile-link sensitivity the
paper motivates (edge devices with slow uplinks).

Run:  python examples/cluster_emulation.py        (~1 minute)
"""

from repro import CMFLPolicy, VanillaPolicy
from repro.core.thresholds import ConstantThreshold
from repro.emu import LinkModel, emulate_cluster
from repro.emu.network import MOBILE_LINK

from quickstart import ROUNDS, build_trainer


def emulate(name, policy, link):
    trainer = build_trainer(policy)
    report = emulate_cluster(
        trainer.run(ROUNDS),
        {c.client_id: c.n_samples for c in trainer.clients},
        trainer.server.n_params,
        trainer.config.local_epochs,
        link=link,
        feedback_in_broadcast=name != "vanilla",
    )
    print(f"== {name} over {link.bandwidth_bps / 1e6:.0f} Mbit/s links")
    for kind, nbytes in sorted(report.bytes_by_kind.items()):
        print(f"   {kind:<16} {nbytes / 1e6:8.2f} MB")
    print(f"   simulated wall-clock: {report.simulated_seconds:8.1f} s")
    print(f"   relevance-check overhead: "
          f"{report.relevance_overhead_fraction():.6f} "
          "(paper: <0.0013)\n")
    return report


def main():
    ec2 = LinkModel()  # the default approximates the paper's EC2 cluster
    vanilla = emulate("vanilla", VanillaPolicy(), ec2)
    cmfl = emulate("cmfl", CMFLPolicy(ConstantThreshold(0.55)), ec2)
    print(f"Upstream full-update traffic: vanilla "
          f"{vanilla.uploaded_megabytes:.2f} MB vs CMFL "
          f"{cmfl.uploaded_megabytes:.2f} MB "
          f"({vanilla.uploaded_megabytes / cmfl.uploaded_megabytes:.2f}x)\n")

    # What the same protocol costs on a real phone's uplink.
    emulate("cmfl-on-mobile", CMFLPolicy(ConstantThreshold(0.55)), MOBILE_LINK)


if __name__ == "__main__":
    main()
