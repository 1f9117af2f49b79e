"""Tests for the pre-run validation lint."""

import math

import pytest

from repro.errors import ValidationError
from repro.liberty import make_library
from repro.netlist.design import Design
from repro.netlist.generators import random_logic
from repro.sta import Constraints
from repro.validate import (
    Severity,
    ValidationReport,
    ensure_valid,
    validate_constraints,
    validate_design,
    validate_library,
    validate_setup,
)


@pytest.fixture(scope="module")
def lib():
    return make_library()


def make_design(seed=11):
    return random_logic(n_inputs=8, n_outputs=8, n_gates=40,
                        n_levels=4, seed=seed)


def make_constraints():
    c = Constraints.single_clock(520.0)
    c.input_delays = {f"in{i}": 60.0 for i in range(8)}
    return c


def codes(issues):
    return {i.code for i in issues}


class TestValidateDesign:
    def test_clean_design(self, lib):
        issues = validate_design(make_design(), lib)
        # random_logic legitimately leaves some unloaded gate outputs
        # (dangling-net warnings); what matters is zero errors.
        assert all(i.severity is Severity.WARNING for i in issues)
        assert codes(issues) <= {"dangling-net"}

    def test_empty_design(self, lib):
        issues = validate_design(Design("void"), lib)
        assert codes(issues) == {"empty-design"}

    def test_unknown_cell(self, lib):
        design = make_design()
        inst = next(iter(design.instances.values()))
        inst.cell_name = "QUANTUM_GATE"
        assert "unknown-cell" in codes(validate_design(design, lib))

    def test_unknown_pin(self, lib):
        design = make_design()
        inst = next(iter(design.instances.values()))
        net = next(iter(inst.connections.values()))
        inst.connections["ZZ"] = net
        assert "unknown-pin" in codes(validate_design(design, lib))

    def test_unconnected_pin(self, lib):
        design = make_design()
        inst = next(
            i for i in design.instances.values()
            if len(i.connections) > 1
        )
        pin = next(iter(inst.connections))
        del inst.connections[pin]
        assert "unconnected-pin" in codes(validate_design(design, lib))

    def test_multi_driver(self, lib):
        design = make_design()
        outputs = [
            (inst, pin) for inst in design.instances.values()
            for pin, net in inst.connections.items()
            if lib.cells[inst.cell_name].pins[pin].direction.value == "output"
        ]
        (inst_a, pin_a), (inst_b, pin_b) = outputs[0], outputs[1]
        inst_b.connections[pin_b] = inst_a.connections[pin_a]
        found = codes(validate_design(design, lib))
        assert "multi-driver" in found

    def test_undriven_net(self, lib):
        design = make_design()
        inst = next(iter(design.instances.values()))
        pin = next(
            p for p in inst.connections
            if lib.cells[inst.cell_name].pins[p].direction.value == "input"
        )
        inst.connections[pin] = "net_from_nowhere"
        assert "undriven-net" in codes(validate_design(design, lib))

    def test_structural_checks_work_without_library(self):
        issues = validate_design(make_design())
        assert issues == []  # library-aware checks are skipped


class TestValidateLibrary:
    def test_clean_library(self, lib):
        report = ValidationReport(issues=validate_library(lib))
        assert report.ok

    def test_empty_library(self):
        from repro.liberty.library import Library

        issues = validate_library(
            Library("hollow", vdd=0.8, temp_c=25.0, cells={})
        )
        assert codes(issues) == {"empty-library"}

    def test_bad_capacitance(self):
        lib = make_library()
        cell = next(iter(lib.cells.values()))
        next(iter(cell.pins.values())).capacitance = math.nan
        assert "bad-capacitance" in codes(validate_library(lib))

    def test_nan_in_delay_table(self):
        lib = make_library()
        cell = next(c for c in lib.cells.values() if c.arcs)
        arc = next(a for a in cell.arcs if a.timing)
        timing = arc.timing[sorted(arc.timing)[0]]
        timing.delay.values[0, 0] = math.nan
        assert "non-finite-table" in codes(validate_library(lib))

    def test_negative_delay(self):
        lib = make_library()
        cell = next(c for c in lib.cells.values() if c.arcs)
        arc = next(a for a in cell.arcs if a.timing)
        timing = arc.timing[sorted(arc.timing)[0]]
        timing.delay.values[0, 0] = -10.0
        assert "negative-delay" in codes(validate_library(lib))


class TestValidateConstraints:
    def test_clean(self, lib):
        issues = validate_constraints(make_constraints(), make_design())
        assert issues == []

    def test_no_clock(self):
        c = Constraints()
        assert "no-clock" in codes(validate_constraints(c))

    def test_uncertainty_exceeds_period(self):
        import dataclasses

        c = make_constraints()
        name, clock = next(iter(c.clocks.items()))
        c.clocks[name] = dataclasses.replace(
            clock, uncertainty_setup=clock.period + 1.0
        )
        assert "uncertainty-exceeds-period" in codes(validate_constraints(c))

    def test_input_delay_unknown_port(self):
        c = make_constraints()
        c.input_delays["no_such_port"] = 10.0
        issues = validate_constraints(c, make_design())
        assert "input-delay-unknown-port" in codes(issues)

    def test_negative_output_delay(self):
        c = make_constraints()
        c.output_delays["out0"] = -5.0
        issues = validate_constraints(c, make_design())
        assert "output-delay-negative" in codes(issues)

    def test_delay_exceeding_period_is_warning(self):
        c = make_constraints()
        c.input_delays["in0"] = 1000.0
        issues = validate_constraints(c, make_design())
        (issue,) = [i for i in issues
                    if i.code == "input-delay-exceeds-period"]
        assert issue.severity is Severity.WARNING

    def test_bad_max_transition(self):
        c = make_constraints()
        c.max_transition = -1.0
        assert "bad-max-transition" in codes(validate_constraints(c))


class TestEntryPoints:
    def test_validate_setup_clean(self, lib):
        report = validate_setup(make_design(), lib, make_constraints())
        assert report.ok
        assert not report.errors

    def test_empty_report_renders_clean(self):
        assert ValidationReport().render() == "validation clean: no issues"

    def test_report_sorts_errors_first(self, lib):
        c = make_constraints()
        c.input_delays["in0"] = 1000.0      # warning
        c.output_delays["out0"] = -5.0      # error
        report = validate_setup(make_design(), lib, c)
        assert not report.ok
        assert report.issues[0].severity is Severity.ERROR
        assert report.issues[-1].severity is Severity.WARNING
        assert f"1 error(s), {len(report.warnings)} warning(s)" \
            in report.render()

    def test_ensure_valid_passes_clean(self, lib):
        report = ensure_valid(make_design(), lib, make_constraints())
        assert report.ok

    def test_ensure_valid_raises_with_issues(self, lib):
        design = make_design()
        inst = next(iter(design.instances.values()))
        inst.cell_name = "QUANTUM_GATE"
        with pytest.raises(ValidationError) as info:
            ensure_valid(design, lib, make_constraints())
        exc = info.value
        assert exc.context["design"] == design.name
        assert "pre-run validation failed" in str(exc)
        assert any(i.code == "unknown-cell" for i in exc.issues)

    def test_warnings_do_not_raise(self, lib):
        c = make_constraints()
        c.input_delays["in0"] = 1000.0  # warning only
        report = ensure_valid(make_design(), lib, c)
        assert report.warnings and report.ok
