GO ?= go

.PHONY: check vet staticcheck build test race race-ring race-serve race-chaos parity opt-parity opt-golden shard-parity bench-kernels bench-selftest telemetry-overhead fuzz-smoke e2e-encrypted soak-chaos trend

## check: the full CI gate — vet, staticcheck, build, tests, the race
## detector (including the ring worker-pool hammer), the optimizer
## parity suite with its golden digests, and the benchmark module's own
## tests.
check: vet staticcheck build test race race-ring parity bench-selftest

## vet: go vet, then gofmt -l over the root module and the nested
## benchmark/ one; gofmt -l only reads, and any file it lists fails the
## target.
vet:
	$(GO) vet ./...
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then echo "gofmt -l lists:"; echo "$$unformatted"; exit 1; fi

## staticcheck: honnef.co/go/tools; skipped with a notice when the
## binary is not on PATH (CI installs it, local toolchains may not).
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (go install honnef.co/go/tools/cmd/staticcheck@latest)"; \
	fi

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race -short ./...

## race-ring: the ring/zq kernel suites in full under the race detector —
## the worker-pool hammer (concurrent ring ops from many goroutines,
## mirroring heserve's batcher, grouped-digit raise included), the limb
## differential suites and the Barrett/Shoup reduction tests. Proves the
## revived limb-parallel path is data-race-free and deterministic.
race-ring:
	$(GO) test -race ./internal/ring/... ./internal/zq/...

## race-serve: the serving layer's concurrency suite (micro-batching,
## backpressure, drain) in full under the race detector.
race-serve:
	$(GO) test -race ./internal/serve/

## race-chaos: the resilience suites in full under the race detector —
## network fault injection, the in-process kill/restart soak (durable
## store + bit-identical recovery), and the key store's concurrent
## register/evict/lookup drills.
race-chaos:
	$(GO) test -race ./internal/chaos/ ./internal/keys/

## soak-chaos: the process-level survival drill — heserve with listener
## fault injection and a durable key store, open-loop hebombard load,
## SIGKILL + restart mid-load, SLO report asserted free of silent drops.
soak-chaos:
	bash scripts/soak_chaos.sh

## parity: the optimizer gates at CNN scale, against the executor's own
## -opt=off run — -opt=on bit-identical (logits and report rows), on the
## executor's one-worker-per-input-ciphertext schedule — plus the
## fused-recombine legs. TestExecutorParityGolden* pins the answer
## itself — SHA-256 of the logit bits and stage names for every front-end
## (plan -opt off/on, RNS k=3 -opt on/off, batch-2, 2-shard grids),
## recorded on one worker — so a change shared by every leg, or a
## schedule that moves a bit, cannot pass.
parity:
	$(GO) test -run TestExecutorParity -timeout 20m ./internal/henn/

## opt-parity: just the optimizer oracle — the parity suite plus the
## hoisted-rotation grouping bit-identity fixture the lowering's
## one-group-per-source rule relies on.
opt-parity:
	$(GO) test -run 'TestExecutorParity|TestRotateHoistedGrouping' -timeout 20m ./internal/henn/

## opt-golden: the graph gate — checked-in post-optimization Stats and
## structural shape digests for CNN1/CNN2/CNN3 plans, RNS, sharded and
## batched front-ends on both backends, the lowering's one-group-per-source
## rotation plan, the row-shared giant steps of a sharded linear stage
## (one standalone rotation per output row and non-zero giant step, plus
## log2(slots/p) folds per row, counted from the plan's own blocks), the
## period rule (wrapped diagonals reconstruct M and are reachable from the
## declared rotations, every fold declared, baby·giant = p; every slot s
## of a folded stage ≈ (Mx+b)[s mod p] on random one- and two-block rows),
## the ≥15% engine-call reduction floor, the guard's predicted per-stage
## noise bits for CNN1 and the 4-shard CNN3 on paper-shaped chains,
## CNN1's level profile (inputs dropped to the working levels before
## stage 0, whose plaintext scale spans as many primes as the top prime
## is wide; the same profile behind the 3-part RNS front-end), and the
## RNS front-end's shape (stage 0 one block row over the digit parts,
## block i = Bⁱ × the base block, one hoist group per part, no
## OpRecombine, no rotation key beyond the base plan's). All symbolic
## except the contract tests and TestLowerRNSPlan (tiny keys) and
## TestImageTransformCountGolden, which keys CNN1 on every paper chain
## k = 8 … 13, CNN1 behind 3 digit parts and the 4-shard CNN3 at logN 11
## to count one image's limb NTTs/INTTs, each next to the level stage 0
## reads and its key-switch digit count (CNN1 k=13: 3,786; k=9: 4,090,
## the costliest, since level 8 is then the 40-bit top prime and splits
## into 6 digits where k = 10 … 13 have 5; CNN1 rns3: 5,230, 9,638 while
## each part ran stage 0 on its own; CNN3: 11,517) and hold the RMS logit
## error at ≥ 11.5 bits (CNN1, all rows) and ≥ 16.5 bits (CNN3)
## (~60 s on 2 vCPUs).
opt-golden:
	$(GO) test -run 'TestOptimizedGraphGolden|TestOptimizeOffPreservesLowering|TestShardedRowGiantSteps|TestDiagonalsReconstructMatrix|TestRotationsAreCoveredByBSGS|TestLinearStageMatchesMatVec|TestFoldedLinearContract|TestNoiseBudgetGolden|TestLevelProfileGolden|TestImageTransformCountGolden|TestLowerRNSPlan' ./internal/henn/

## shard-parity: the sharding gates — the shard package's unit and
## property suites (manifest split/join, wire round trip), the golden
## digests pinning the 1×1 grid (which is the single-ciphertext plan
## every Compile produces) and the 2-shard grids bit for bit (each output
## row one BSGS whose giant steps sum every block before one rotation),
## and the cross-shard round trips against the plaintext model and the
## single-ciphertext pipeline.
shard-parity:
	$(GO) test ./internal/henn/shard/
	$(GO) test -run 'TestExecutorParityGolden|TestShardParityTiny|TestShardedCrossShardDense|TestShardInputValidation' -timeout 30m ./internal/henn/

## trend: the benchmark harness's own two-set bound check — every
## BENCHMARK.json workload twice (benchmark/run.sh --twice), then each
## end-to-end metric of set B against set A and its bound; exits 1 on a
## breach. Reports land in benchmark/out/.
trend:
	bash benchmark/run.sh --twice

## bench-kernels: ring kernel micro-benchmarks — NTT, pointwise multiply,
## rescale division and cached-scalar multiply per limb count, the
## lazily-reduced inner product against the eager per-term loop per term
## and limb count, and the key switch's NTT-domain ModDown and one-job
## digit raise against the coefficient-domain shapes they replaced —
## serial vs pool-parallel, with allocation counts; then the scheme ops
## those kernels make up (Rescale, Rotate, Mul+relinearize, eight hoisted
## rotations), so one command prints the kernel → scheme-op chain. The
## parallel/serial ratio at a given limb count is the limb-level speedup;
## it scales with GOMAXPROCS.
bench-kernels:
	$(GO) test -run xxx -bench 'BenchmarkKernel' -benchtime 20x -benchmem -timeout 30m ./internal/ring/
	$(GO) test -run xxx -bench '^Benchmark(Rescale|Rotate|MulRelin|RotateHoisted8)$$' -benchtime 20x -benchmem -timeout 30m ./internal/ckks/

## bench-selftest: the nested benchmark module (benchmark/, which the root
## `go test ./...` does not enter) — vet plus its short tests: the
## BENCHMARK.json-matches-the-program check and the timing decorator's
## parity test, whose per-kind call counts must still equal the ByKind
## counts of the graph it ran.
bench-selftest:
	cd benchmark && $(GO) vet ./... && $(GO) test -short ./...

## telemetry-overhead: per-op executor cost with telemetry off / metrics
## on / metrics+tracing on. The disabled case must stay within noise of
## the pre-telemetry executor (one nil check per op).
telemetry-overhead:
	$(GO) test -run xxx -bench BenchmarkRunEncrypted -benchtime 2s ./internal/henn/exec/

## fuzz-smoke: short native-fuzzing passes over the wire-format readers
## (ciphertext, key-bundle, each key type and shard-manifest frames); they
## must reject corrupt input with typed errors, never panic, and an
## accepted switching key must carry exactly one (b, a) pair per
## key-switch digit of the layout, every QP limb present (the ckks
## targets fuzz a grouped-digit chain).
## FuzzOptimize runs the optimizer on random valid graphs against an exact
## mod-p fake engine: same values, valid output, no extra engine calls.
## FuzzCombine runs ir.Combine's three dispatch shapes (PlainRecombine,
## Recombine, MulInt/Add chain) on random sums over the same kind of fake:
## same values, and only the calls each shape promises.
fuzz-smoke:
	$(GO) test -run xxx -fuzz FuzzReadCiphertext -fuzztime 10s ./internal/ckks/
	$(GO) test -run xxx -fuzz FuzzReadKeyBundle -fuzztime 10s ./internal/ckks/
	$(GO) test -run xxx -fuzz FuzzReadPublicKey -fuzztime 10s ./internal/ckks/
	$(GO) test -run xxx -fuzz FuzzReadSecretKey -fuzztime 10s ./internal/ckks/
	$(GO) test -run xxx -fuzz FuzzReadRelinearizationKey -fuzztime 10s ./internal/ckks/
	$(GO) test -run xxx -fuzz FuzzReadRotationKeySet -fuzztime 10s ./internal/ckks/
	$(GO) test -run xxx -fuzz FuzzDecodeManifest -fuzztime 10s ./internal/henn/shard/
	$(GO) test -run xxx -fuzz FuzzOptimize -fuzztime 10s ./internal/henn/ir/opt/
	$(GO) test -run xxx -fuzz FuzzCombine -fuzztime 10s ./internal/henn/ir/

## e2e-encrypted: the client-held-key protocol end to end — heserve on
## CNN1, hectl keygen/register/classify, encrypted vs plaintext route
## agreement.
e2e-encrypted:
	bash scripts/e2e_encrypted.sh
