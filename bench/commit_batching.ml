open Farm_sim
open Farm_core
open Farm_workloads

(* Ablation: doorbell-batched vs unbatched commit pipeline.

   A multi-participant mix in the TATP/YCSB-F mould: every transaction
   touches one cell in each of [spread] regions spread over the cluster —
   80 % read-modify-write (the full LOCK / COMMIT-BACKUP / COMMIT-PRIMARY
   pipeline against every distinct primary and backup machine), 20 %
   multi-region read-only (batched VALIDATE header reads only). Replication
   is raised to 5 so the per-transaction backup set spans the whole
   cluster: commit CPU is then dominated by per-participant verb issue,
   which is precisely what doorbell batching amortizes. Run at a saturating
   worker count in both modes.

   There is one commit pipeline. The unbatched mode is a setting of the
   verb cost model, not a second code path: each doorbell after a batch's
   first costs a full issue plus its own poll, so a batch of k ops charges
   exactly k * (issue + poll) — what k single verbs cost. Per-op wire
   behaviour is identical in both modes; only the issuing CPU differs.

   Emits BENCH_commit_batching.json (machine-readable, one object per
   mode) so later PRs can track the perf trajectory. *)

let spread = 8
let cells_per_region = 32768
let replication = 5

(* Latency digest of one histogram, all in microseconds. *)
type digest = {
  count : int;
  p50 : float;
  p90 : float;
  p99 : float;
  p999 : float;
  max : float;
  mean : float;
}

let digest_of (h : Stats.Hist.t) =
  let pct p = float_of_int (Stats.Hist.percentile h p) /. 1e3 in
  {
    count = Stats.Hist.count h;
    p50 = pct 50.;
    p90 = pct 90.;
    p99 = pct 99.;
    p999 = pct 99.9;
    max = float_of_int (Stats.Hist.max_value h) /. 1e3;
    mean = Stats.Hist.mean h /. 1e3;
  }

type mode_result = {
  label : string;
  commits_per_us : float;
  latency : digest;
  committed : int;
  failed : int;
  phases : (string * digest) list;  (* committed tx only *)
}

(* The unbatched cost setting of the verb model. *)
let unbatched_cost (net : Farm_net.Params.t) =
  { net with cpu_rdma_doorbell = Time.add net.cpu_rdma_issue net.cpu_rdma_poll }

let run_mode ~label ~net ~machines ~workers ~duration =
  let params =
    { Params.default with Params.replication; region_size = 1 lsl 21; net } in
  let c = Cluster.create ~seed:42 ~params ~machines () in
  let regions = Array.init spread (fun _ -> Cluster.alloc_region_exn c) in
  let chunk = 256 in
  let addrs =
    Cluster.run_on c ~machine:0 (fun st ->
        Array.map
          (fun (r : Wire.region_info) ->
            Array.init (cells_per_region / chunk) (fun _ ->
                match
                  Api.run_retry st ~thread:0 (fun tx ->
                      Array.init chunk (fun _ ->
                          let a = Txn.alloc tx ~size:8 ~region:r.Wire.rid () in
                          Txn.write tx a (Bytes.make 8 '\000');
                          a))
                with
                | Ok arr -> arr
                | Error e -> Fmt.failwith "commit_batching setup: %a" Txn.pp_abort e)
            |> Array.to_list |> Array.concat)
          regions)
  in
  let op (ctx : Driver.worker_ctx) =
    let rng = ctx.Driver.rng in
    let ro = Rng.int rng 100 < 20 in
    match
      Api.run ctx.Driver.st ~thread:ctx.Driver.thread (fun tx ->
          Array.iter
            (fun per_region ->
              let a = per_region.(Rng.int rng cells_per_region) in
              let v = Int64.to_int (Bytes.get_int64_le (Txn.read tx a ~len:8) 0) in
              if not ro then begin
                let b = Bytes.create 8 in
                Bytes.set_int64_le b 0 (Int64.of_int (v + 1));
                Txn.write tx a b
              end)
            addrs)
    with
    | Ok () -> true
    | Error _ -> false
  in
  let stats = Driver.run c ~workers ~warmup:(Time.ms 5) ~duration ~op in
  let phases =
    List.map (fun (name, h) -> (name, digest_of h)) (Cluster.merged_phase_hists c)
  in
  {
    label;
    commits_per_us = Driver.throughput_per_us stats ~duration;
    latency = digest_of stats.Driver.latency;
    committed = Stats.Counter.get stats.Driver.ops;
    failed = Stats.Counter.get stats.Driver.failures;
    phases;
  }

let digest_fields d =
  Printf.sprintf
    "\"count\": %d, \"p50_us\": %.2f, \"p90_us\": %.2f, \"p99_us\": %.2f, \"p999_us\": \
     %.2f, \"max_us\": %.2f, \"mean_us\": %.2f"
    d.count d.p50 d.p90 d.p99 d.p999 d.max d.mean

let json_of ~machines ~workers ~duration batched unbatched =
  let mode m =
    let phase_fields =
      String.concat ", "
        (List.map
           (fun (name, d) -> Printf.sprintf "\"%s\": { %s }" name (digest_fields d))
           m.phases)
    in
    Printf.sprintf
      "    \"%s\": { \"commits_per_us\": %.4f, %s, \"committed\": %d, \"failed\": %d, \
       \"phases\": { %s } }"
      m.label m.commits_per_us (digest_fields m.latency) m.committed m.failed phase_fields
  in
  String.concat "\n"
    [
      "{";
      "  \"bench\": \"commit_batching\",";
      Printf.sprintf
        "  \"config\": { \"machines\": %d, \"workers_per_machine\": %d, \"duration_ms\": %d, \
         \"regions_per_tx\": %d, \"replication\": %d },"
        machines workers
        (int_of_float (Time.to_ms_float duration))
        spread replication;
      "  \"modes\": {";
      mode batched ^ ",";
      mode unbatched;
      "  },";
      Printf.sprintf "  \"speedup\": %.3f"
        (batched.commits_per_us /. unbatched.commits_per_us);
      "}";
    ]

let run ?(machines = 12) ?(workers = 256) ?(duration = Time.ms 30) () =
  Bench_util.header "Commit batching ablation (doorbell-batched one-sided verbs)"
    "Storm / FaRMv2 argument: batched verb issue and completion reaping move \
     multi-participant commits from verb-rate-bound to CPU-bound; each phase \
     rings the NIC once instead of once per participant";
  let net = Params.default.Params.net in
  let batched = run_mode ~label:"batched" ~net ~machines ~workers ~duration in
  let unbatched =
    run_mode ~label:"unbatched" ~net:(unbatched_cost net) ~machines ~workers ~duration
  in
  Fmt.pr "%-12s %14s %10s %10s %10s %10s %10s %10s@." "mode" "commits/us" "p50(us)"
    "p90(us)" "p99(us)" "p999(us)" "max(us)" "committed";
  List.iter
    (fun m ->
      Fmt.pr "%-12s %14.3f %10.1f %10.1f %10.1f %10.1f %10.1f %10d@." m.label
        m.commits_per_us m.latency.p50 m.latency.p90 m.latency.p99 m.latency.p999
        m.latency.max m.committed)
    [ batched; unbatched ];
  Fmt.pr "@.speedup (batched/unbatched): %.2fx commits/us@."
    (batched.commits_per_us /. unbatched.commits_per_us);
  Fmt.pr "@.commit-latency phase breakdown (committed tx, merged over machines):@.";
  Fmt.pr "%-12s %-16s %10s %10s %10s %10s %10s %10s %10s@." "mode" "phase" "count"
    "p50(us)" "p90(us)" "p99(us)" "p999(us)" "max(us)" "mean(us)";
  List.iter
    (fun m ->
      List.iter
        (fun (name, d) ->
          Fmt.pr "%-12s %-16s %10d %10.1f %10.1f %10.1f %10.1f %10.1f %10.1f@." m.label
            name d.count d.p50 d.p90 d.p99 d.p999 d.max d.mean)
        m.phases)
    [ batched; unbatched ];
  let json = json_of ~machines ~workers ~duration batched unbatched in
  Bench_util.write_artifact "BENCH_commit_batching.json" (fun oc ->
      output_string oc (json ^ "\n"));
  (batched, unbatched)
