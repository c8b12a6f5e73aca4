"""Every conformance cluster also runs the online Def. 3 monitor.

A monitored run is event-identical to an unmonitored one, so turning
the monitor on changes no scenario.  Whenever a scenario asks for
``one_copy_report()``, the monitor, polled up to the same point, must
reach the same verdict: silent when the audit passes, and flagging the
audit's violation kind when it fails.
"""

import dataclasses

import pytest

from repro.core import ClusterConfig, SIRepCluster

#: the audit's rule -> the monitor's kind for the same finding
MONITOR_KIND = {"1-copy-si": "one-copy-si", "ww-order": "ww-order", "rowa": "rowa"}


@pytest.fixture(autouse=True)
def monitor_agrees_with_the_audit(monkeypatch):
    build = SIRepCluster.__init__
    audit = SIRepCluster.one_copy_report

    def monitored(self, config=None, **kwargs):
        build(self, dataclasses.replace(config or ClusterConfig(), monitor=True), **kwargs)

    def agreed(self):
        report = audit(self)
        self.monitor.poll()
        kinds = {violation.kind for violation in self.monitor.violations}
        if report.ok:
            assert not kinds, [str(v) for v in self.monitor.violations]
        else:
            assert {MONITOR_KIND[v.rule] for v in report.violations} <= kinds, (
                str(report), [str(v) for v in self.monitor.violations]
            )
        return report

    monkeypatch.setattr(SIRepCluster, "__init__", monitored)
    monkeypatch.setattr(SIRepCluster, "one_copy_report", agreed)
