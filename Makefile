# CI entry points.  `make check` is what the pipeline runs on every
# change: a full build plus the tier-1 test suite.

.PHONY: check build test lint analyze-smoke plan-smoke policy-smoke bench bench-smoke bench-pins chaos-smoke scale-smoke serve-smoke clean

check: build test

build:
	dune build

test:
	dune runtest

# Static analysis over the evaluation networks: any error-severity
# finding makes the CLI (and therefore this target) exit non-zero.
lint: build
	dune exec bin/heimdall_cli.exe -- lint enterprise
	dune exec bin/heimdall_cli.exe -- lint university --severity error

# Semantic analysis smoke: both evaluation networks must come out free
# of error-severity findings, and the seeded union-shadow defect — which
# only the packet-set algebra can see — must flip the exit code and
# report ACL004.
analyze-smoke: build
	dune exec bin/heimdall_cli.exe -- analyze enterprise
	dune exec bin/heimdall_cli.exe -- analyze university
	! dune exec bin/heimdall_cli.exe -- analyze enterprise --seed-defect > /tmp/analyze-seeded.out
	grep -q ACL004 /tmp/analyze-seeded.out
	dune exec bench/main.exe -- sem

# Plan-analysis smoke: the static pre-flight must be sound on every
# scenario ticket (predicted delta contains the exact replay diff, the
# privilege verdict agrees with replay), the clean scenarios must show
# no plan conflicts, and a deliberately seeded overlapping ticket must
# be detected and held.
plan-smoke: build
	dune exec bin/heimdall_cli.exe -- analyze enterprise --plan
	dune exec bin/heimdall_cli.exe -- analyze university --plan
	dune exec bin/heimdall_cli.exe -- conflicts enterprise
	dune exec bin/heimdall_cli.exe -- conflicts university
	! dune exec bin/heimdall_cli.exe -- conflicts enterprise --seed-overlap > /tmp/plan-seeded.out
	grep -q "plan.conflict" /tmp/plan-seeded.out

# Policy-tree smoke: both paper networks and a generated fleet must
# compile and analyse clean (POL004 proves the tree equivalent to the
# flat spec), a seeded parent/child contradiction must flip the exit
# code and report POL001, and the rule registry printed by --list-rules
# must match the expected family count.
policy-smoke: build
	dune exec bin/heimdall_cli.exe -- policy enterprise
	dune exec bin/heimdall_cli.exe -- policy university
	dune exec bin/heimdall_cli.exe -- policy fleet:fat-tree:k=4
	! dune exec bin/heimdall_cli.exe -- policy enterprise --seed-defect pol001 > /tmp/policy-seeded.out
	grep -q POL001 /tmp/policy-seeded.out
	dune exec bin/heimdall_cli.exe -- lint --list-rules | grep -q "35 rules in 6 families"
	dune exec bench/main.exe -- poltree

bench:
	dune exec bench/main.exe

# The two report sections CI persists on every run: static-analysis and
# verify-engine wall times, merged by key into bench/report.json (so one
# section never clobbers the other).  The engine report is also a gate —
# it exits non-zero unless verdicts are byte-identical across domain
# counts, the dataplane caches actually hit, a warm persistent cache
# rebuilds nothing, and the N-domain sweep beats 1 domain (speedup
# criterion skipped, and recorded as skipped, on single-core hosts).
bench-smoke: build
	dune exec bench/main.exe -- lint engine

# The benchmark's own smoke test: every workload runs a few units and
# each ticket's audit head and final network digest, and every sweep
# verdict, must match perfbench/pins.txt.  A refactor that moves an audit
# record fails here, not only in the benchmark pipeline.
bench-pins: build
	python3 perfbench/smoke.py

# Seeded fault-injection run over the enterprise issues: exits non-zero
# unless every issue resolves with zero surviving policy violations and
# a verifying audit trail, then persists the "chaos" report section.
chaos-smoke: build
	dune exec bin/heimdall_cli.exe -- chaos enterprise --seed 42
	dune exec bench/main.exe -- chaos

# Fleet-scale smoke: generate a seeded fat-tree and run the whole
# lint → twin → verify → schedule → audit pipeline over it.  The CLI
# exits non-zero on nondeterministic regeneration, lint errors, policy
# violations, cross-domain verdict drift or an unresolved issue; the
# `bench scale` section then persists walls, peak RSS and cache stats
# at three sizes (largest 500+ devices) into bench/report.json.
scale-smoke: build
	dune exec bin/heimdall_cli.exe -- scale --shape fat-tree -k 4 --seed 42
	dune exec bin/heimdall_cli.exe -- scale --spec leaf-spine:spines=4:leaves=8:seed=7 --no-issues
	dune exec bench/main.exe -- scale

# Watchtower smoke: `serve --once` replays the scenario into the live
# registry, runs a clean -> injected-drift -> clear monitor cycle, then
# scrapes its own /metrics, /healthz, /metrics.json, /spans and /events
# over real HTTP (stdlib client) and exits non-zero when any required
# series or drift transition is missing.  The obs bench gates
# instrumentation overhead at 10% and persists the "obs" report section.
serve-smoke: build
	dune exec bin/heimdall_cli.exe -- serve enterprise --once --port 0
	dune exec bench/main.exe -- obs

clean:
	dune clean
