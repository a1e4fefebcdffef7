#!/usr/bin/env bash
# Single CI entry point: configure, build, test, smoke stages. Run from
# anywhere; operates on the repo root. Behaviour is driven by env vars so
# every job in .github/workflows/ci.yml calls this same script:
#
#   STAGES        comma/space-separated stage list. `configure` and `build`
#                 always run first; the rest are selectable:
#                   test       ctest (honours CTEST_LABELS)
#                   fault      fault-injection matrices (ctest -L fault)
#                   checkpoint kill/resume matrix through the real binary
#                   bench      bench smoke + inference-count tripwire
#                   snapshot   CLI snapshot + golden queries + CRC tripwire
#                              + the streamed cold path over several blocks
#                   async      epoll server smoke over both wire protocols
#                   ingest     streaming-ingest smoke: cold-vs-incremental
#                              equivalence + kill-mid-journal resume
#                   remote     MDP1 remote delta transport smoke: `mapit
#                              send` against `mapit ingest --listen`,
#                              kill -9 the sender mid-stream twice, restart,
#                              and require the published snapshot to be
#                              byte-identical to a cold batch run; wrong
#                              secret must be rejected with exit 7
#                   supervise  self-healing smoke: supervised worker fleet,
#                              kill -9 one mid-replay, zero failed golden
#                              answers + automatic restart, SIGTERM drain
#                   sweep      differential baseline sweep vs DIFF_sweep.json
#                   fuzz       bounded libFuzzer smoke via tools/fuzz.sh
#                              (clang only; replays regressions first)
#                 Unset: the legacy per-stage toggles below pick the set.
#                 A stage-timing table is printed on exit either way.
#   BUILD_TYPE    CMake build type (default RelWithDebInfo)
#   SANITIZE      MAPIT_SANITIZE value, e.g. "address;undefined" or "thread"
#                 (default: none)
#   WERROR        MAPIT_WERROR, ON or OFF (default OFF)
#   CTEST_LABELS  regex for ctest -L, e.g. "unit|integration" to skip the
#                 slow standard-scale tests in sanitizer jobs (default: all)
#   BENCH_SMOKE   1 = run the bench smoke + inference-count tripwire,
#                 0 = skip, e.g. under sanitizers (default 1)
#   SNAPSHOT_SMOKE 1 = build a snapshot through the CLI, run the canned
#                 query batch against the committed golden answers, and
#                 check the standard run's artifact CRC against the
#                 committed BENCH_query.json (default: BENCH_SMOKE)
#   FAULT_MATRIX  1 = run the fault-injection matrices (ctest -L fault):
#                 crash-at-every-syscall artifact tests and the server
#                 chaos/soak tests. Cheap; sanitizer jobs rely on it
#                 (default 1)
#   CHECKPOINT_MATRIX 1 = kill the CLI at every run boundary (--stop-after),
#                 chain --resume until completion for threads 1 and 8, and
#                 require byte-identical inferences vs an uninterrupted
#                 run; also checks the deadline checkpoint-and-exit path
#                 (default: FAULT_MATRIX)
#   ASYNC_SMOKE   1 = boot `mapit serve --async` on a real snapshot and
#                 replay the canned query batch over both wire protocols
#                 (line and binary), diffing each response stream against
#                 the committed golden answers; ends with a SIGTERM
#                 graceful-drain check (default: SNAPSHOT_SMOKE)
#   SUPERVISE_SMOKE 1 = boot a supervised two-worker serve fleet, kill -9
#                 one worker mid-replay, and require zero failed golden
#                 answers plus a recorded automatic restart; ends with a
#                 SIGTERM cascade that must drain the fleet
#                 (default: ASYNC_SMOKE)
#   INGEST_SMOKE  1 = stream the tail of a seeded corpus through
#                 `mapit ingest --drain` and require the published snapshot
#                 to be byte-identical to a cold `mapit snapshot` over the
#                 full corpus; then truncate the delta journal twice (deep
#                 cut and torn frame) and re-ingest — every resume must
#                 converge to the same bytes (default: SNAPSHOT_SMOKE)
#   REMOTE_INGEST_SMOKE 1 = stream a delta corpus with `mapit send` into
#                 `mapit ingest --listen` over the authenticated MDP1
#                 transport, kill -9 the sender mid-stream twice and
#                 restart it (the receiver's (session, seq) watermark must
#                 drop every replayed batch), then require the published
#                 snapshot and a journal-replay re-run to be byte-identical
#                 to a cold `mapit snapshot` over base+delta; also checks
#                 that a wrong shared secret is refused at HELLO with
#                 exit 7 and no journal growth (default: INGEST_SMOKE)
#   DIFF_SWEEP    1 = run the MAP-IT vs baselines sweep over the default
#                 artifact-rate × seed grid and require exact agreement
#                 with the committed DIFF_sweep.json (default: BENCH_SMOKE)
#   FUZZ_SMOKE    1 = replay committed fuzz regressions, then fuzz every
#                 harness for FUZZ_TIME seconds under ASan+UBSan. Needs
#                 clang; see tools/fuzz.sh (default 0)
#   FUZZ_TIME     seconds per fuzz target in the fuzz stage (default 60)
#   BUILD_DIR     override the derived build directory
#   JOBS          parallel build/test jobs (default: nproc)
set -euo pipefail

REPO_ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
BUILD_TYPE="${BUILD_TYPE:-RelWithDebInfo}"
SANITIZE="${SANITIZE:-}"
WERROR="${WERROR:-OFF}"
CTEST_LABELS="${CTEST_LABELS:-}"
BENCH_SMOKE="${BENCH_SMOKE:-1}"
SNAPSHOT_SMOKE="${SNAPSHOT_SMOKE:-${BENCH_SMOKE}}"
FAULT_MATRIX="${FAULT_MATRIX:-1}"
CHECKPOINT_MATRIX="${CHECKPOINT_MATRIX:-${FAULT_MATRIX}}"
ASYNC_SMOKE="${ASYNC_SMOKE:-${SNAPSHOT_SMOKE}}"
SUPERVISE_SMOKE="${SUPERVISE_SMOKE:-${ASYNC_SMOKE}}"
INGEST_SMOKE="${INGEST_SMOKE:-${SNAPSHOT_SMOKE}}"
REMOTE_INGEST_SMOKE="${REMOTE_INGEST_SMOKE:-${INGEST_SMOKE}}"
DIFF_SWEEP="${DIFF_SWEEP:-${BENCH_SMOKE}}"
FUZZ_SMOKE="${FUZZ_SMOKE:-0}"
FUZZ_TIME="${FUZZ_TIME:-60}"
JOBS="${JOBS:-$(nproc 2>/dev/null || echo 2)}"

# One build dir per (type, sanitizer) combination so matrix jobs and local
# runs never poison each other's caches.
if [[ -z "${BUILD_DIR:-}" ]]; then
  suffix="$(echo "${BUILD_TYPE}" | tr '[:upper:]' '[:lower:]')"
  if [[ -n "${SANITIZE}" ]]; then
    suffix+="-$(echo "${SANITIZE}" | tr ';' '-')"
  fi
  BUILD_DIR="${REPO_ROOT}/build-${suffix}"
fi

# ---------------------------------------------------------------------------
# Stage runner: every stage goes through run_stage so the timing table on
# exit reflects exactly what ran — also when a stage fails.
STAGE_NAMES=()
STAGE_TIMES=()
STAGE_RESULTS=()

print_stage_table() {
  echo
  echo "== stage timings =="
  printf '%-12s %10s  %s\n' "stage" "seconds" "result"
  local i
  for i in "${!STAGE_NAMES[@]}"; do
    printf '%-12s %10s  %s\n' "${STAGE_NAMES[$i]}" "${STAGE_TIMES[$i]}" \
      "${STAGE_RESULTS[$i]}"
  done
}
trap print_stage_table EXIT

run_stage() {
  local name="$1"
  local start end
  start=$(date +%s%N)
  STAGE_NAMES+=("${name}")
  STAGE_TIMES+=("-")
  STAGE_RESULTS+=("FAILED")
  local idx=$((${#STAGE_NAMES[@]} - 1))
  "stage_${name}"
  end=$(date +%s%N)
  STAGE_TIMES[idx]=$(awk -v n=$((end - start)) 'BEGIN{printf "%.1f", n/1e9}')
  STAGE_RESULTS[idx]="ok"
}

# ---------------------------------------------------------------------------

stage_configure() {
  echo "== configure (${BUILD_TYPE}${SANITIZE:+, sanitize=${SANITIZE}}) =="
  local cmake_args=(
    -DCMAKE_BUILD_TYPE="${BUILD_TYPE}"
    -DMAPIT_WERROR="${WERROR}"
    -DMAPIT_SANITIZE="${SANITIZE}"
  )
  if command -v ccache >/dev/null 2>&1; then
    cmake_args+=(-DCMAKE_CXX_COMPILER_LAUNCHER=ccache)
  fi
  cmake -B "${BUILD_DIR}" -S "${REPO_ROOT}" "${cmake_args[@]}"
}

stage_build() {
  echo "== build =="
  cmake --build "${BUILD_DIR}" -j "${JOBS}"
}

stage_test() {
  echo "== test${CTEST_LABELS:+ (-L '${CTEST_LABELS}')} =="
  local ctest_args=(--test-dir "${BUILD_DIR}" --output-on-failure -j "${JOBS}")
  if [[ -n "${CTEST_LABELS}" ]]; then
    ctest_args+=(-L "${CTEST_LABELS}")
  fi
  ctest "${ctest_args[@]}"
}

stage_fault() {
  echo "== fault matrix (-L fault) =="
  # Fault-injection matrices have their own label (and timeout) so the
  # sanitizer jobs — whose CTEST_LABELS exclude them above — still run
  # them: crash/ENOSPC/short-write at every syscall of the atomic artifact
  # writer, and the query-server chaos/soak suite.
  ctest --test-dir "${BUILD_DIR}" --output-on-failure -j "${JOBS}" -L fault
}

stage_checkpoint() {
  echo "== checkpoint kill/resume matrix =="
  # Kill-at-every-pass proof through the real binary: every invocation
  # advances exactly one run boundary, checkpoints, and exits 5; the chain
  # of --resume legs must converge to byte-identical inferences for every
  # thread count, and a completed run must clean up its checkpoint.
  local mapit_bin="${BUILD_DIR}/tools/mapit"
  local work="${BUILD_DIR}/checkpoint_matrix"
  rm -rf "${work}"
  mkdir -p "${work}"
  "${mapit_bin}" simulate --out "${work}" --seed 9
  local inputs=(--traces "${work}/traces.txt" --rib "${work}/rib.txt"
                --relationships "${work}/relationships.txt"
                --as2org "${work}/as2org.txt" --ixps "${work}/ixps.txt")
  "${mapit_bin}" run "${inputs[@]}" --threads 1 \
    --output "${work}/reference.txt" \
    --uncertain "${work}/reference_uncertain.txt"

  local threads ckpt rc legs
  for threads in 1 8; do
    ckpt="${work}/ckpt-${threads}"
    local flags=("${inputs[@]}" --threads "${threads}"
                 --output "${work}/resumed-${threads}.txt"
                 --uncertain "${work}/resumed-${threads}-uncertain.txt")
    set +e
    "${mapit_bin}" run "${flags[@]}" --checkpoint-dir "${ckpt}" \
      --stop-after 1
    rc=$?
    legs=0
    while [[ "${rc}" -eq 5 ]]; do
      legs=$((legs + 1))
      if [[ "${legs}" -gt 50 ]]; then
        echo "resume chain did not terminate in 50 legs" >&2
        exit 1
      fi
      "${mapit_bin}" run "${flags[@]}" --resume "${ckpt}" --stop-after 1
      rc=$?
    done
    set -e
    if [[ "${rc}" -ne 0 ]]; then
      echo "resume leg exited ${rc} (threads=${threads})" >&2
      exit 1
    fi
    if [[ "${legs}" -lt 2 ]]; then
      echo "resume chain too short to prove anything (${legs} legs)" >&2
      exit 1
    fi
    cmp "${work}/reference.txt" "${work}/resumed-${threads}.txt"
    cmp "${work}/reference_uncertain.txt" \
      "${work}/resumed-${threads}-uncertain.txt"
    if [[ -e "${ckpt}/engine.ckpt" ]]; then
      echo "completed run did not remove its checkpoint" >&2
      exit 1
    fi
    echo "threads=${threads}: ${legs} resume legs, byte-identical: ok"
  done

  # Deadline supervision: an already-expired budget must checkpoint and
  # exit 5 at the first boundary, leaving a valid checkpoint a plain
  # --resume completes from — with the same bytes.
  local dflags=("${inputs[@]}" --threads 1
                --output "${work}/deadline.txt"
                --uncertain "${work}/deadline_uncertain.txt")
  set +e
  "${mapit_bin}" run "${dflags[@]}" \
    --checkpoint-dir "${work}/ckpt-deadline" --deadline 0.000001
  rc=$?
  set -e
  if [[ "${rc}" -ne 5 ]]; then
    echo "expired deadline should exit 5, got ${rc}" >&2
    exit 1
  fi
  "${mapit_bin}" run "${dflags[@]}" --resume "${work}/ckpt-deadline"
  cmp "${work}/reference.txt" "${work}/deadline.txt"
  echo "deadline checkpoint-and-exit + resume: ok"
}

stage_bench() {
  echo "== bench smoke =="
  # Minimal measurement time: checks the bench binaries run, not their
  # numbers.
  "${BUILD_DIR}/bench/perf_micro" --benchmark_min_time=0.01

  echo "== inference-count tripwire =="
  # perf_engine_report re-runs the standard experiment; its inference count
  # must match the committed BENCH_engine.json. A drift means the engine's
  # output changed — that must be a deliberate, reviewed update of the
  # committed report, never a side effect.
  local report="${BUILD_DIR}/bench_smoke_report.json"
  "${BUILD_DIR}/bench/perf_engine_report" --reps 1 --threads 1,2 \
    --out "${report}"
  python3 - "${report}" "${REPO_ROOT}/BENCH_engine.json" <<'EOF'
import json, sys
fresh = json.load(open(sys.argv[1]))
committed = json.load(open(sys.argv[2]))
got, want = fresh["standard_inferences"], committed["standard_inferences"]
if got != want:
    sys.exit(f"standard_inferences drifted: got {got}, committed {want}")
print(f"standard_inferences == {want}: ok")
EOF
}

stage_snapshot() {
  echo "== snapshot smoke =="
  # Build a snapshot through the CLI from seeded synthetic datasets, answer
  # the committed canned query batch, and diff against the committed golden
  # answers. The batch ends with `stats`, whose answer embeds the artifact's
  # CRC — so byte-determinism drift, format drift, and engine-output drift
  # all fail this diff, not just protocol regressions.
  local mapit_bin="${BUILD_DIR}/tools/mapit"
  local work="${BUILD_DIR}/snapshot_smoke"
  rm -rf "${work}"
  mkdir -p "${work}"
  "${mapit_bin}" simulate --out "${work}" --seed 9
  local datasets=(--rib "${work}/rib.txt"
                  --relationships "${work}/relationships.txt"
                  --as2org "${work}/as2org.txt" --ixps "${work}/ixps.txt")
  "${mapit_bin}" snapshot --traces "${work}/traces.txt" "${datasets[@]}" \
    --out "${work}/snapshot.bin"
  "${mapit_bin}" query "${work}/snapshot.bin" \
    < "${REPO_ROOT}/tests/cli/golden_queries.txt" > "${work}/answers.txt"
  diff -u "${REPO_ROOT}/tests/cli/golden_answers.txt" "${work}/answers.txt"
  echo "golden query answers: ok"

  echo "== streamed cold path over several blocks =="
  # The trace reader streams its input a 1 MiB block at a time. Eight
  # copies of the corpus (several blocks) repeat every adjacency but add
  # none, so the snapshot must be the same bytes.
  local x8="${work}/traces_x8.txt"
  for _ in 1 2 3 4 5 6 7 8; do cat "${work}/traces.txt"; done > "${x8}"
  "${mapit_bin}" snapshot --traces "${x8}" "${datasets[@]}" \
    --out "${work}/snapshot_x8.bin"
  cmp "${work}/snapshot.bin" "${work}/snapshot_x8.bin"
  # One malformed line planted past the first block: strict mode must exit
  # 3 naming the line number and byte offset computed here from the file;
  # lenient mode must skip just that line and write the same bytes.
  local bad="${work}/traces_bad.txt"
  local expected rc
  expected="$(python3 - "${x8}" "${bad}" <<'EOF'
import sys
text = open(sys.argv[1], "rb").read()
at = text.index(b"\n", 3 * 1024 * 1024 // 2) + 1  # a line start in block 2
line_no = text.count(b"\n", 0, at) + 1
with open(sys.argv[2], "wb") as out:
    out.write(text[:at] + b"1|20.0.0.1|11.0.0.1 1.2.3.999\n" + text[at:])
print(f"trace line {line_no} (byte {at}): bad address in hop '1.2.3.999'")
EOF
)"
  set +e
  "${mapit_bin}" snapshot --traces "${bad}" "${datasets[@]}" \
    --out "${work}/snapshot_bad.bin" 2> "${work}/strict.err"
  rc=$?
  set -e
  if [[ "${rc}" -ne 3 ]] || ! grep -qxF "error: ${expected}" "${work}/strict.err"; then
    echo "strict load of a bad line should exit 3 with '${expected}'," \
         "got ${rc}: $(cat "${work}/strict.err")" >&2
    exit 1
  fi
  "${mapit_bin}" snapshot --lenient --traces "${bad}" "${datasets[@]}" \
    --out "${work}/snapshot_lenient.bin" 2> "${work}/lenient.err"
  grep -q "^traces: skipped 1 of " "${work}/lenient.err"
  cmp "${work}/snapshot.bin" "${work}/snapshot_lenient.bin"
  echo "x8 corpus and planted bad line (${expected%%:*}): ok"

  echo "== snapshot crash matrix =="
  # Crash-at-every-injection-point proof for the artifact the smoke above
  # just consumed: whatever syscall dies mid-replace, the destination path
  # must still hold a complete, CRC-valid snapshot.
  "${BUILD_DIR}/tests/mapit_store_fault_test"

  echo "== snapshot checksum tripwire (standard run) =="
  # perf_query_report rebuilds the standard experiment's snapshot; its CRC
  # and inference count must match the committed BENCH_query.json. Any
  # change to the engine's output or the artifact encoding must arrive as a
  # deliberate update of the committed report.
  local query_report="${BUILD_DIR}/snapshot_smoke_report.json"
  "${BUILD_DIR}/bench/perf_query_report" --reps 1 --out "${query_report}"
  python3 - "${query_report}" "${REPO_ROOT}/BENCH_query.json" <<'EOF'
import json, sys
fresh = json.load(open(sys.argv[1]))
committed = json.load(open(sys.argv[2]))
for key in ("snapshot_crc32", "snapshot_bytes", "standard_inferences"):
    got, want = fresh[key], committed[key]
    if got != want:
        sys.exit(f"{key} drifted: got {got}, committed {want}")
    print(f"{key} == {want}: ok")
EOF
}

stage_async() {
  echo "== async serve smoke =="
  # Boot the epoll event-loop server through the real binary and replay the
  # canned query batch over BOTH wire protocols. The line-protocol response
  # must be byte-identical to the committed golden answers — the same bytes
  # `mapit query` and the blocking server produce — and the binary-protocol
  # frame payloads must reassemble to the same file. SIGTERM at the end
  # must drain gracefully (exit 0), not kill the loop mid-answer.
  local mapit_bin="${BUILD_DIR}/tools/mapit"
  local work="${BUILD_DIR}/async_smoke"
  rm -rf "${work}"
  mkdir -p "${work}"
  "${mapit_bin}" simulate --out "${work}" --seed 9
  "${mapit_bin}" snapshot \
    --traces "${work}/traces.txt" --rib "${work}/rib.txt" \
    --relationships "${work}/relationships.txt" \
    --as2org "${work}/as2org.txt" --ixps "${work}/ixps.txt" \
    --out "${work}/snapshot.bin"

  "${mapit_bin}" serve "${work}/snapshot.bin" --async --reuseport \
    --backlog 512 2> "${work}/serve.log" &
  local serve_pid=$!
  trap 'kill "${serve_pid}" 2>/dev/null || true; print_stage_table' EXIT
  local port=""
  local _i
  for _i in $(seq 1 100); do
    port="$(sed -n 's/^serving .* on 127\.0\.0\.1:\([0-9]*\).*/\1/p' \
      "${work}/serve.log" | head -n 1)"
    [[ -n "${port}" ]] && break
    if ! kill -0 "${serve_pid}" 2>/dev/null; then
      echo "async server died during startup:" >&2
      cat "${work}/serve.log" >&2
      exit 1
    fi
    sleep 0.1
  done
  if [[ -z "${port}" ]]; then
    echo "async server never announced its port" >&2
    cat "${work}/serve.log" >&2
    exit 1
  fi

  local protocol
  for protocol in line binary; do
    python3 - "${port}" "${REPO_ROOT}/tests/cli/golden_queries.txt" \
      "${work}/${protocol}_answers.txt" "${protocol}" <<'EOF'
import socket, struct, sys

port, query_path, out_path, protocol = sys.argv[1:5]
queries = []
for line in open(query_path):
    line = line.strip()
    if line and not line.startswith("#"):
        queries.append(line)

sock = socket.create_connection(("127.0.0.1", int(port)), timeout=30)
sock.settimeout(30)
if protocol == "line":
    sock.sendall(("\n".join(queries) + "\n").encode())
else:
    request = b"MQB1"
    for query in queries:
        payload = query.encode()
        request += struct.pack("<I", len(payload)) + payload
    sock.sendall(request)
sock.shutdown(socket.SHUT_WR)
data = b""
while True:
    chunk = sock.recv(65536)
    if not chunk:
        break
    data += chunk
sock.close()

if protocol == "binary":
    payloads, offset = [], 0
    while offset < len(data):
        (length,) = struct.unpack_from("<I", data, offset)
        offset += 4
        payloads.append(data[offset:offset + length])
        offset += length
    data = b"\n".join(payloads) + b"\n"
open(out_path, "wb").write(data)
EOF
    diff -u "${REPO_ROOT}/tests/cli/golden_answers.txt" \
      "${work}/${protocol}_answers.txt"
    echo "async ${protocol}-protocol golden answers: ok"
  done

  kill -TERM "${serve_pid}"
  wait "${serve_pid}"
  trap print_stage_table EXIT
  echo "async SIGTERM graceful drain: ok"
}

stage_ingest() {
  echo "== ingest cold-vs-incremental equivalence =="
  # The streaming-ingestion signature invariant, proven through the real
  # binary: folding a delta stream onto a base corpus must publish a
  # snapshot byte-identical to a cold batch run over the concatenated
  # corpus — for any batching boundary. `cmp` (not a CRC) so any drift in
  # any byte fails.
  local mapit_bin="${BUILD_DIR}/tools/mapit"
  local work="${BUILD_DIR}/ingest_smoke"
  rm -rf "${work}"
  mkdir -p "${work}"
  "${mapit_bin}" simulate --out "${work}" --seed 9
  local datasets=(--rib "${work}/rib.txt"
                  --relationships "${work}/relationships.txt"
                  --as2org "${work}/as2org.txt" --ixps "${work}/ixps.txt")

  # Split the corpus: the first 3/4 is the base batch the pipeline starts
  # from, the rest arrives later as an appended delta stream.
  local total base_lines
  total=$(wc -l < "${work}/traces.txt")
  base_lines=$((total * 3 / 4))
  head -n "${base_lines}" "${work}/traces.txt" > "${work}/base.txt"
  tail -n "+$((base_lines + 1))" "${work}/traces.txt" > "${work}/delta.txt"

  "${mapit_bin}" snapshot --traces "${work}/traces.txt" "${datasets[@]}" \
    --out "${work}/cold.snap"

  local ingest_flags=(--traces "${work}/base.txt" "${datasets[@]}"
                      --journal "${work}/deltas.jnl"
                      --out "${work}/live.snap"
                      --follow "${work}/delta.txt" --drain)
  "${mapit_bin}" ingest "${ingest_flags[@]}" 2> "${work}/ingest.log"
  cmp "${work}/cold.snap" "${work}/live.snap"
  echo "incremental publish == cold snapshot: ok (${total} traces," \
       "$((total - base_lines)) streamed)"

  echo "== ingest kill-mid-journal resume =="
  # Simulate a crash that tore the journal tail: chop bytes off the end,
  # re-run, and require the resumed pipeline — replayed prefix plus
  # re-tailed delta lines — to publish the same bytes. Two cuts: a deep
  # one that loses whole records, and a 3-byte one that tears a frame
  # mid-header.
  local size cut
  for cut in 4096 3; do
    size=$(stat -c %s "${work}/deltas.jnl")
    if [[ "${size}" -le "${cut}" ]]; then
      echo "journal too small (${size} bytes) for a ${cut}-byte cut" >&2
      exit 1
    fi
    truncate -s $((size - cut)) "${work}/deltas.jnl"
    rm -f "${work}/live.snap"
    "${mapit_bin}" ingest "${ingest_flags[@]}" 2>> "${work}/ingest.log"
    cmp "${work}/cold.snap" "${work}/live.snap"
    echo "resume after ${cut}-byte journal cut: byte-identical: ok"
  done
}

stage_remote() {
  echo "== remote delta transport (MDP1) kill -9 resilience =="
  # The exactly-once claim, proven through the real binaries: `mapit send`
  # streams a delta file into `mapit ingest --listen` over the framed,
  # authenticated transport; the sender is kill -9'd mid-stream twice and
  # restarted (resuming from the receiver's durable watermark, resending
  # anything unACKed), and the final published snapshot must still be
  # byte-identical (cmp) to a cold batch run over base+delta. A wrong
  # shared secret must be refused at HELLO with exit 7 and zero journal
  # writes, and a receiver restart replaying the journal must republish
  # the same bytes.
  local mapit_bin="${BUILD_DIR}/tools/mapit"
  local work="${BUILD_DIR}/remote_smoke"
  rm -rf "${work}"
  mkdir -p "${work}"
  "${mapit_bin}" simulate --out "${work}" --seed 11
  local datasets=(--rib "${work}/rib.txt"
                  --relationships "${work}/relationships.txt"
                  --as2org "${work}/as2org.txt" --ixps "${work}/ixps.txt")

  local total base_lines
  total=$(wc -l < "${work}/traces.txt")
  base_lines=$((total * 3 / 4))
  head -n "${base_lines}" "${work}/traces.txt" > "${work}/base.txt"
  tail -n "+$((base_lines + 1))" "${work}/traces.txt" > "${work}/delta.txt"

  "${mapit_bin}" snapshot --traces "${work}/traces.txt" "${datasets[@]}" \
    --out "${work}/cold.snap"

  printf 'remote-smoke-shared-secret\n' > "${work}/secret"
  printf 'not-the-shared-secret\n' > "${work}/wrong.secret"

  # --listen 0 binds an ephemeral port; scrape it from the startup log
  # line ("ingest: listening (MDP1) on 127.0.0.1:<port>, ...").
  "${mapit_bin}" ingest --traces "${work}/base.txt" "${datasets[@]}" \
    --journal "${work}/deltas.jnl" --out "${work}/live.snap" \
    --listen 0 --secret-file "${work}/secret" \
    --batch-seconds 0.1 --poll-interval 0.02 \
    2> "${work}/ingest.log" &
  local ingest_pid=$!
  trap 'kill "${ingest_pid}" 2>/dev/null || true; print_stage_table' EXIT

  local port="" _i
  for _i in $(seq 1 100); do
    port="$(sed -n 's/.*listening (MDP1) on 127\.0\.0\.1:\([0-9]*\).*/\1/p' \
      "${work}/ingest.log" | head -n 1)"
    if [[ -n "${port}" ]]; then break; fi
    if ! kill -0 "${ingest_pid}" 2>/dev/null; then
      echo "ingest exited before binding its MDP1 listener:" >&2
      cat "${work}/ingest.log" >&2
      exit 1
    fi
    sleep 0.1
  done
  if [[ -z "${port}" ]]; then
    echo "ingest never logged its MDP1 listen port" >&2
    cat "${work}/ingest.log" >&2
    exit 1
  fi

  # Wrong shared secret: refused at HELLO with the dedicated exit code,
  # before anything reaches the journal.
  local journal_before rc=0
  journal_before=$(stat -c %s "${work}/deltas.jnl")
  "${mapit_bin}" send --file "${work}/delta.txt" --port "${port}" \
    --session smoke --secret-file "${work}/wrong.secret" \
    2> "${work}/send_rejected.log" || rc=$?
  if [[ "${rc}" != 7 ]]; then
    echo "wrong secret: expected exit 7 (auth rejected), got ${rc}:" >&2
    cat "${work}/send_rejected.log" >&2
    exit 1
  fi
  if [[ "$(stat -c %s "${work}/deltas.jnl")" != "${journal_before}" ]]; then
    echo "rejected handshake grew the delta journal" >&2
    exit 1
  fi
  echo "wrong secret refused at HELLO (exit 7, no journal writes): ok"

  # Stream the delta with small batches so a kill -9 reliably lands with
  # batches in flight; --follow keeps the sender alive (tailing) even if
  # it finishes early, so the kill always interrupts a live session.
  local send_flags=(--file "${work}/delta.txt" --port "${port}"
                    --session smoke --secret-file "${work}/secret"
                    --batch-lines 20 --batch-seconds 0.05
                    --poll-interval 0.02 --window 2)
  local round send_pid
  for round in 1 2; do
    "${mapit_bin}" send "${send_flags[@]}" --follow \
      2>> "${work}/send.log" &
    send_pid=$!
    sleep 0.4
    kill -9 "${send_pid}" 2>/dev/null || true
    wait "${send_pid}" 2>/dev/null || true
    echo "sender kill -9 round ${round}: ok"
  done
  # The final run drains to EOF and exits once every line is ACKed —
  # i.e. journaled and fsynced by the receiver. Anything the kills left
  # unACKed is resent; anything already durable is replayed and must be
  # dropped by the (session, seq) watermark.
  "${mapit_bin}" send "${send_flags[@]}" 2>> "${work}/send.log"

  kill -TERM "${ingest_pid}"
  rc=0
  wait "${ingest_pid}" || rc=$?
  trap print_stage_table EXIT
  if [[ "${rc}" != 5 ]]; then
    echo "ingest: expected exit 5 (interrupted by SIGTERM), got ${rc}:" >&2
    cat "${work}/ingest.log" >&2
    exit 1
  fi
  cmp "${work}/cold.snap" "${work}/live.snap"
  echo "remote stream survives two sender kill -9s: byte-identical: ok" \
       "(${total} traces, $((total - base_lines)) sent remotely)"

  # Receiver restart: replaying the journal (remote batches + watermarks)
  # alone must republish the same bytes.
  rm -f "${work}/live.snap"
  "${mapit_bin}" ingest --traces "${work}/base.txt" "${datasets[@]}" \
    --journal "${work}/deltas.jnl" --out "${work}/live.snap" --drain \
    2>> "${work}/ingest.log"
  cmp "${work}/cold.snap" "${work}/live.snap"
  echo "receiver restart journal replay: byte-identical: ok"
}

stage_supervise() {
  echo "== supervise self-healing smoke =="
  # Boot a supervised fleet — two `serve --async --reuseport` workers
  # sharing one port — then kill -9 one worker mid-replay. The replay
  # retries transient connection errors (a reset is exactly what a killed
  # worker's in-flight connections see) but treats any WRONG bytes as a
  # hard failure: the surviving worker must keep answering the golden
  # batch while the supervisor restarts its sibling. Ends with a SIGTERM
  # cascade that must drain the whole fleet and exit 0.
  local mapit_bin="${BUILD_DIR}/tools/mapit"
  local work="${BUILD_DIR}/supervise_smoke"
  rm -rf "${work}"
  mkdir -p "${work}"
  "${mapit_bin}" simulate --out "${work}" --seed 9
  "${mapit_bin}" snapshot \
    --traces "${work}/traces.txt" --rib "${work}/rib.txt" \
    --relationships "${work}/relationships.txt" \
    --as2org "${work}/as2org.txt" --ixps "${work}/ixps.txt" \
    --out "${work}/snapshot.bin"

  local port
  port="$(python3 -c 'import socket
s = socket.socket()
s.bind(("127.0.0.1", 0))
print(s.getsockname()[1])')"

  cat > "${work}/fleet.spec" <<EOF
set restart-base-ms 100
set restart-cap-ms 1000
set breaker-restarts 10
set breaker-window-s 60
set drain-s 10
worker web1 ${mapit_bin} serve ${work}/snapshot.bin --async --reuseport --port ${port}
worker web2 ${mapit_bin} serve ${work}/snapshot.bin --async --reuseport --port ${port}
EOF

  "${mapit_bin}" supervise "${work}/fleet.spec" 2> "${work}/supervise.log" &
  local super_pid=$!
  trap 'kill "${super_pid}" 2>/dev/null || true; print_stage_table' EXIT

  local pid1="" _i
  for _i in $(seq 1 100); do
    pid1="$(sed -n 's/^supervise: started web1 pid \([0-9]*\).*/\1/p' \
      "${work}/supervise.log" | head -n 1)"
    if [[ -n "${pid1}" ]] && \
       grep -q '^supervise: started web2 pid ' "${work}/supervise.log"; then
      break
    fi
    pid1=""
    if ! kill -0 "${super_pid}" 2>/dev/null; then
      echo "supervisor died during startup:" >&2
      cat "${work}/supervise.log" >&2
      exit 1
    fi
    sleep 0.1
  done
  if [[ -z "${pid1}" ]]; then
    echo "supervisor never reported both workers started" >&2
    cat "${work}/supervise.log" >&2
    exit 1
  fi

  # One golden replay round: retries connection-level failures, hard-fails
  # on any byte drift. Reused for every round below.
  replay_round() {
    python3 - "${port}" "${REPO_ROOT}/tests/cli/golden_queries.txt" \
      "${work}/replay_answers.txt" <<'EOF'
import socket, sys, time

port, query_path, out_path = sys.argv[1:4]
queries = [l.strip() for l in open(query_path)
           if l.strip() and not l.startswith("#")]
request = ("\n".join(queries) + "\n").encode()
deadline = time.monotonic() + 60
last = None
while time.monotonic() < deadline:
    try:
        sock = socket.create_connection(("127.0.0.1", int(port)), timeout=10)
        sock.settimeout(10)
        sock.sendall(request)
        sock.shutdown(socket.SHUT_WR)
        data = b""
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                break
            data += chunk
        sock.close()
        open(out_path, "wb").write(data)
        sys.exit(0)
    except OSError as error:
        last = error  # reset/refused mid-kill: retry against the survivor
        time.sleep(0.2)
sys.exit(f"replay never completed: {last}")
EOF
    diff -u "${REPO_ROOT}/tests/cli/golden_answers.txt" \
      "${work}/replay_answers.txt"
  }

  local round
  for round in 1 2 3; do replay_round; done
  echo "supervised fleet golden answers (pre-kill): ok"

  kill -9 "${pid1}"
  # The kill must not cost clients a single wrong answer while the
  # supervisor brings the worker back.
  for round in 1 2 3 4 5; do replay_round; done
  echo "golden answers across kill -9 of web1 (pid ${pid1}): ok"

  local restarted=""
  for _i in $(seq 1 100); do
    if grep -q '^supervise: restarted web1 ' "${work}/supervise.log"; then
      restarted=yes
      break
    fi
    sleep 0.1
  done
  if [[ -z "${restarted}" ]]; then
    echo "supervisor never recorded the web1 restart" >&2
    cat "${work}/supervise.log" >&2
    exit 1
  fi
  replay_round
  echo "automatic restart recorded and fleet still golden: ok"

  kill -TERM "${super_pid}"
  local rc=0
  wait "${super_pid}" || rc=$?
  trap print_stage_table EXIT
  if [[ "${rc}" -ne 0 ]]; then
    echo "supervise exited ${rc} after SIGTERM (want 0):" >&2
    cat "${work}/supervise.log" >&2
    exit 1
  fi
  if ! grep -q '^supervise: fleet stopped' "${work}/supervise.log"; then
    echo "supervisor did not report a drained fleet" >&2
    cat "${work}/supervise.log" >&2
    exit 1
  fi
  echo "supervise SIGTERM cascade drained the fleet: ok"
}

stage_sweep() {
  echo "== differential baseline sweep =="
  # MAP-IT vs the §5.6 heuristics across the artifact-rate × seed grid;
  # the fresh integers must agree exactly with the committed
  # DIFF_sweep.json (the pipeline is seeded and thread-invariant, so any
  # disagreement is real drift). Resumable: a killed sweep continues at
  # the first unfinished cell through the state file.
  MAPIT_BIN="${BUILD_DIR}/tools/mapit" \
    SWEEP_STATE="${BUILD_DIR}/diff_sweep.state" \
    "${REPO_ROOT}/tools/diff_sweep.sh"
  echo "diff sweep vs committed baseline: ok"
}

stage_fuzz() {
  echo "== fuzz smoke (${FUZZ_TIME}s per target) =="
  # Replays every committed regression input, then fuzzes each harness
  # under ASan+UBSan for FUZZ_TIME seconds. New findings are minimized
  # into fuzz/regressions/ and fail the stage. Needs clang (libFuzzer);
  # gcc-only machines cover the same inputs via `ctest -L fuzz-regression`.
  FUZZ_TIME="${FUZZ_TIME}" JOBS="${JOBS}" "${REPO_ROOT}/tools/fuzz.sh"
}

# ---------------------------------------------------------------------------
# Stage selection: STAGES wins; otherwise derive the list from the legacy
# per-stage toggles so existing CI jobs keep working unchanged.
if [[ -n "${STAGES:-}" ]]; then
  SELECTED=()
  for stage in $(echo "${STAGES}" | tr ',' ' '); do
    case "${stage}" in
      configure|build) ;;  # always run; listed for convenience
      test|fault|checkpoint|bench|snapshot|async|ingest|remote|supervise|sweep|fuzz)
        SELECTED+=("${stage}") ;;
      *)
        echo "ci.sh: unknown stage '${stage}' (valid: test fault checkpoint" \
             "bench snapshot async ingest remote supervise sweep fuzz)" >&2
        exit 2 ;;
    esac
  done
else
  SELECTED=(test)
  if [[ "${FAULT_MATRIX}" == "1" ]]; then SELECTED+=(fault); fi
  if [[ "${CHECKPOINT_MATRIX}" == "1" ]]; then SELECTED+=(checkpoint); fi
  if [[ "${BENCH_SMOKE}" == "1" ]]; then SELECTED+=(bench); fi
  if [[ "${SNAPSHOT_SMOKE}" == "1" ]]; then SELECTED+=(snapshot); fi
  if [[ "${ASYNC_SMOKE}" == "1" ]]; then SELECTED+=(async); fi
  if [[ "${SUPERVISE_SMOKE}" == "1" ]]; then SELECTED+=(supervise); fi
  if [[ "${INGEST_SMOKE}" == "1" ]]; then SELECTED+=(ingest); fi
  if [[ "${REMOTE_INGEST_SMOKE}" == "1" ]]; then SELECTED+=(remote); fi
  if [[ "${DIFF_SWEEP}" == "1" ]]; then SELECTED+=(sweep); fi
  if [[ "${FUZZ_SMOKE}" == "1" ]]; then SELECTED+=(fuzz); fi
fi

run_stage configure
run_stage build
for stage in "${SELECTED[@]}"; do
  run_stage "${stage}"
done

echo "CI OK"
