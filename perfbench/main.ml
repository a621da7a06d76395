(* The simulator benchmark: one workload, one seed, one checked cell timed
   around its public calls.

     main.exe --workload NAME --seed N --seconds S --trace 0|1 [--spans FILE]

   --trace 0 repeats the set-up phase alone, then the whole cell until S
   wall seconds are used, and reports the end-to-end metrics: medians of
   host CPU time, and simulated results, which repeat exactly for a seed.
   --trace 1 runs the cell once untraced, then two idle clusters (with and
   without proxies), then the cell again with a full trace sink and an
   enabled metrics registry, and reports the per-layer metrics. Every
   metric is also printed on its own line; the last line is one JSON
   object. Exits 1 when a self-check fails. *)

open Perfbench
module D = Workload.Driver
module E = Harness.Experiment

type value = Int of int | Float of float
type metric = { name : string; unit_ : string; value : value }

let int name unit_ v = { name; unit_; value = Int v }
let float name unit_ v = { name; unit_; value = Float v }
let ratio a b = if b = 0. then 0. else a /. b
let fi = float_of_int

(* Integer counts are written exactly, floats with every digit. *)
let json_value = function
  | Int n -> string_of_int n
  | Float f when Float.is_finite f -> Printf.sprintf "%.17g" f
  | Float _ -> "null"

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let print_metric kind m =
  Printf.printf "%-10s %-28s %s %s\n" kind m.name (json_value m.value) m.unit_

(* --- self-checks -------------------------------------------------------- *)

let failures = ref []
let expect ok msg = if not ok then failures := msg :: !failures

let check_cell (w : Cells.workload) (c : Cells.cell) =
  expect (Check.Checker.ok c.Cells.report)
    (Printf.sprintf "checker found %d violation(s)" (List.length c.Cells.report.Check.Checker.violations));
  expect (c.Cells.result.D.unfinished = 0)
    (Printf.sprintf "%d transaction(s) unfinished" c.Cells.result.D.unfinished);
  let beyond a = fi (Array.length a) *. (1. -. w.Cells.tail_p) in
  expect
    (beyond c.Cells.result.D.high_latencies_ms >= 10. && beyond c.Cells.result.D.low_latencies_ms >= 10.)
    (Printf.sprintf "fewer than 10 samples beyond p%g (high %d, low %d)" (100. *. w.Cells.tail_p)
       (Array.length c.Cells.result.D.high_latencies_ms)
       (Array.length c.Cells.result.D.low_latencies_ms))

(* Two runs of one cell and seed simulate the same thing. *)
let same_simulation what (events, result) (c : Cells.cell) =
  expect (events = c.Cells.events && result = c.Cells.result)
    (Printf.sprintf "%s: simulated statistics differ (events %d vs %d)" what events c.Cells.events)

(* Failure share: transactions given up after the retry limit or still
   running at the horizon; a checker violation fails the whole cell. *)
let failed_of (c : Cells.cell) =
  let r = c.Cells.result in
  if Check.Checker.ok c.Cells.report then r.D.failed + r.D.unfinished else Cells.generated r

(* --- end-to-end metrics ------------------------------------------------- *)

let pct a p = if Array.length a = 0 then nan else Simstats.Percentile.percentile a ~p

let sim_metrics (w : Cells.workload) (r : D.result) =
  [
    float "sim_p50_high_ms" "ms" (pct r.D.high_latencies_ms 0.5);
    float "sim_tail_high_ms" "ms" (pct r.D.high_latencies_ms w.Cells.tail_p);
    float "sim_p50_low_ms" "ms" (pct r.D.low_latencies_ms 0.5);
    float "sim_tail_low_ms" "ms" (pct r.D.low_latencies_ms w.Cells.tail_p);
    float "sim_goodput_tps" "txn/s" (r.D.goodput_high_tps +. r.D.goodput_low_tps);
  ]

(* The heap's high-water mark so far; read after the first cell, it is that
   cell's peak. *)
let peak_heap_mb () = fi ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.

(* Set-up takes 0.05-50 ms, so it is repeated on its own and reported as
   the median. Each repetition starts from a collected heap, like a cell. *)
let setup_reps = 25

let end_to_end spans w ~seed ~seconds =
  let t0 = Unix.gettimeofday () in
  let setups =
    List.init setup_reps (fun _ ->
        Gc.full_major ();
        snd (Spans.time spans "setup" (fun () -> ignore (Cells.setup spans w ~seed))))
  in
  (* Only the first cell's events and result outlive it, so each cell runs
     with one cluster live and the collector's work does not grow from cell
     to cell. *)
  let first = Cells.run spans w ~seed in
  let peak_heap = peak_heap_mb () in
  check_cell w first;
  let r = first.Cells.result in
  let fingerprint = (first.Cells.events, r) in
  let rec loop times attempted failed =
    if Unix.gettimeofday () -. t0 +. median times > fi seconds then (times, attempted, failed)
    else begin
      let c = Cells.run spans w ~seed in
      check_cell w c;
      same_simulation "repeated cell" fingerprint c;
      loop (c.Cells.cell_s :: times) (attempted + Cells.generated c.Cells.result) (failed + failed_of c)
    end
  in
  let times, attempted, failed =
    loop [ first.Cells.cell_s ] (Cells.generated r) (failed_of first)
  in
  let cell_s = median times in
  let metrics =
    (float "setup_s" "s" (median setups) :: float "peak_heap_mb" "MB" peak_heap :: sim_metrics w r)
  in
  (* A whole cell's host time drifts by up to a third over minutes when
     other load shares the processor's caches, so its medians are printed
     but are not in the end-to-end set; see README.md. *)
  List.iter (print_metric "host")
    [ float "cell_s" "s" cell_s; float "commits_per_s" "1/s" (fi (Cells.commits r) /. cell_s) ];
  Printf.printf "# %s seed %d: %d cell(s) of %d events, %d high / %d low in-window samples, tail p%g\n"
    w.Cells.name seed (List.length times) (fst fingerprint)
    (Array.length r.D.high_latencies_ms)
    (Array.length r.D.low_latencies_ms)
    (100. *. w.Cells.tail_p);
  (metrics, attempted, failed)

(* --- per-layer metrics -------------------------------------------------- *)

let measure_kinds = [ "probe"; "probe_reply"; "cache_fetch"; "cache_reply" ]
let raft_kinds = [ "raft_request_vote"; "raft_vote"; "raft_append"; "raft_append_reply" ]
let sum_kinds counts kinds = List.fold_left (fun n (k, c) -> if List.mem k kinds then n + c else n) 0 counts
let count counts kind = Option.value ~default:0 (List.assoc_opt kind counts)

(* Totals of the 2PL lock tables' per-partition cumulative instruments. *)
let registry_total registry suffix =
  List.fold_left
    (fun acc w ->
      List.fold_left
        (fun acc (name, v) ->
          if String.starts_with ~prefix:"locks.p" name && String.ends_with ~suffix name then
            acc +. v
          else acc)
        acc w.Metrics.Registry.samples)
    0. (Metrics.Registry.windows registry)
  |> int_of_float

let per_layer spans w ~seed =
  let u = Cells.run spans w ~seed in
  let peak_heap = peak_heap_mb () in
  check_cell w u;
  (* Standing cost of the measurement plane over the cell's simulated span:
     an idle cluster with proxies minus one without. *)
  let span = Simcore.Engine.now u.Cells.cluster.Txnkit.Cluster.engine in
  let idle_s =
    match w.Cells.spec with
    | E.Natto _ ->
        let with_p = Cells.run_idle spans w ~seed ~with_proxies:true ~until:span in
        let bare = Cells.run_idle spans w ~seed ~with_proxies:false ~until:span in
        with_p -. bare
    | _ -> 0.
  in
  (* The traced cell, instrumented the way [Experiment.run_metrics] does. *)
  let trace = Trace.create () in
  Trace.enable trace;
  let registry = Metrics.Registry.create () in
  Metrics.Registry.enable registry;
  let t = Cells.run ~trace ~metrics:registry spans w ~seed in
  check_cell w t;
  (* The registry's sampler is the traced cell's only extra work: one engine
     event per window. *)
  same_simulation "traced vs untraced" (u.Cells.events, u.Cells.result)
    { t with Cells.events = t.Cells.events - List.length (Metrics.Registry.windows registry) };
  let (breakdowns, blame), analyze_s =
    Spans.time spans "metrics.analyze" (fun () ->
        let txns = Metrics.Registry.txn_records registry in
        let breakdowns, _ =
          Spans.time spans "metrics.attribution.analyze" (fun () ->
              Metrics.Attribution.analyze ~trace ~txns)
        in
        let blame, _ =
          Spans.time spans "metrics.blame.analyze" (fun () ->
              Metrics.Blame.analyze ~trace ~txns ~breakdowns ())
        in
        (breakdowns, blame))
  in
  let seg_mismatch =
    List.fold_left
      (fun m b ->
        max m
          (abs (Metrics.Attribution.total b.Metrics.Attribution.t_seg - b.Metrics.Attribution.t_e2e_us)))
      0 breakdowns
  in
  expect
    (seg_mismatch = 0 && Metrics.Blame.max_mismatch breakdowns = 0)
    (Printf.sprintf "attribution sum mismatch %dus, blame mismatch %dus" seg_mismatch
       (Metrics.Blame.max_mismatch breakdowns));
  let seg name =
    List.fold_left
      (fun n b -> n + List.assoc name (Metrics.Attribution.to_list b.Metrics.Attribution.t_seg))
      0 breakdowns
  in
  let tc = t.Cells.cluster in
  let net = tc.Txnkit.Cluster.net in
  let messages = Netsim.Network.messages_sent net in
  let counts = Trace.kind_counts trace and bytes = Trace.kind_bytes trace in
  let measure = sum_kinds counts measure_kinds and raft = sum_kinds counts raft_kinds in
  let family =
    List.fold_left
      (fun n (k, c) -> if List.mem k measure_kinds || List.mem k raft_kinds then n else n + c)
      0 counts
  in
  expect
    (measure + raft + family = messages)
    (Printf.sprintf "message classes sum to %d, network sent %d" (measure + raft + family) messages);
  let r = u.Cells.result in
  let commits = fi (Cells.commits r) in
  let events = fi u.Cells.events in
  let span_s = Simcore.Sim_time.to_seconds span in
  let busy_max =
    Array.fold_left
      (fun m cpu -> max m (Simcore.Sim_time.to_seconds (Simcore.Cpu.total_busy cpu)))
      0. tc.Txnkit.Cluster.cpus
  in
  let wasted = Metrics.Attribution.wasted_work breakdowns in
  let envelopes = Netsim.Network.envelopes_sent net in
  let metrics =
    [
      float "host.cell_s" "s" u.Cells.cell_s;
      float "host.commits_per_s" "1/s" (commits /. u.Cells.cell_s);
      int "simcore.events" "count" u.Cells.events;
      float "simcore.events_per_commit" "count" (ratio events commits);
      float "simcore.host_ns_per_event" "ns" (ratio (u.Cells.simulate_s *. 1e9) events);
      float "simcore.cpu_busy_max_frac" "fraction" (ratio busy_max span_s);
      float "host.minor_words_per_event" "words" (ratio u.Cells.minor_words events);
      int "host.major_gcs" "count" u.Cells.major_gcs;
      int "netsim.messages" "count" messages;
      int "netsim.bytes" "B" (Netsim.Network.bytes_sent net);
      int "netsim.retransmissions" "count" (Netsim.Network.retransmissions net);
      float "netsim.msgs_per_commit" "count" (ratio (fi messages) commits);
      int "netsim.wan_us" "us" (seg "wan");
      int "rpc.envelopes" "count" envelopes;
      float "rpc.msgs_per_envelope" "count"
        (ratio (fi (Netsim.Network.batched_messages net)) (fi envelopes));
      int "rpc.batching_us" "us" (seg "batching");
      int "raft.append_msgs" "count" (count counts "raft_append");
      int "raft.append_bytes" "B" (count bytes "raft_append");
      int "raft.entries_committed" "count"
        (Array.fold_left (fun n g -> n + Raft.Group.commit_index g) 0 tc.Txnkit.Cluster.groups);
      int "raft.replication_us" "us" (seg "replication");
      int "measure.msgs" "count" measure;
      float "measure.msg_share" "fraction" (ratio (fi measure) (fi messages));
      float "measure.idle_host_s" "s" idle_s;
      float "measure.idle_share" "fraction" (ratio idle_s u.Cells.simulate_s);
      int "store.lock_wait_us" "us" (seg "lock_wait");
      int "store.lock_wounds" "count" (registry_total registry ".wounds");
      int "store.lock_preempts" "count" (registry_total registry ".preempts");
      float "family.msgs_per_commit" "count" (ratio (fi family) commits);
      int "family.abort_msgs" "count" (count counts "abort_notice" + count counts "release");
      int "family.inversion_us" "us" (Metrics.Blame.inversion_us blame);
      int "driver.generated" "count" (Cells.generated r);
      int "driver.attempts" "count" r.D.total_attempts;
      int "driver.aborts" "count" r.D.total_aborts;
      int "driver.failed" "count" r.D.failed;
      int "driver.unfinished" "count" r.D.unfinished;
      float "driver.commit_ratio" "fraction" (ratio commits (fi r.D.total_attempts));
      int "driver.wasted_us" "us" (Metrics.Attribution.wasted_us wasted);
      int "driver.backoff_us" "us" wasted.Metrics.Attribution.wk_backoff_us;
      float "check.host_s" "s" u.Cells.check_s;
      int "check.txns" "count" u.Cells.report.Check.Checker.checked_txns;
      int "check.edges" "count" u.Cells.report.Check.Checker.edges;
      float "trace.overhead" "ratio" (ratio t.Cells.simulate_s u.Cells.simulate_s);
      float "metrics.analyze_host_s" "s" analyze_s;
    ]
  in
  (* The untraced cell's end-to-end view, for the printed table only. *)
  let e2e =
    float "setup_s" "s" u.Cells.setup_s :: float "peak_heap_mb" "MB" peak_heap :: sim_metrics w r
  in
  (e2e, metrics, Cells.generated r, failed_of u)

(* --- driver --------------------------------------------------------------- *)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10 and traced = ref 0 in
  let spans_file = ref "" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME ycsbt-contended | smallbank-10k | retwis-batched");
      ("--seed", Arg.Set_int seed, "N workload seed");
      ("--seconds", Arg.Set_int seconds, "S wall seconds to repeat the cell for (--trace 0)");
      ("--trace", Arg.Set_int traced, "0|1 end-to-end metrics, or the traced per-layer run");
      ("--spans", Arg.Set_string spans_file, "FILE write the run's host-time spans here as JSON");
      ( "--list",
        Arg.Unit
          (fun () ->
            List.iter (fun w -> print_endline w.Cells.name) Cells.workloads;
            exit 0),
        " print the workload names and exit" );
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe --workload NAME --seed N --seconds S --trace 0|1 [--spans FILE] | --list";
  let w =
    match Cells.find !workload with
    | Some w when !traced = 0 || !traced = 1 -> w
    | Some _ ->
        prerr_endline "--trace takes 0 or 1";
        exit 2
    | None ->
        prerr_endline ("unknown workload: " ^ !workload);
        exit 2
  in
  let spans = Spans.create () in
  let metrics, attempted, failed =
    if !traced = 0 then begin
      let metrics, attempted, failed = end_to_end spans w ~seed:!seed ~seconds:!seconds in
      List.iter (print_metric "end_to_end") metrics;
      (metrics, attempted, failed)
    end
    else begin
      let e2e, layers, attempted, failed = per_layer spans w ~seed:!seed in
      List.iter (print_metric "end_to_end") e2e;
      List.iter (print_metric "per_layer") layers;
      (layers, attempted, failed)
    end
  in
  if !spans_file <> "" then Spans.write spans !spans_file;
  List.iter (fun f -> Printf.printf "# self-check FAILED: %s\n" f) (List.rev !failures);
  let correct = !failures = [] in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!" correct
    attempted failed
    (String.concat ", "
       (List.map
          (fun m ->
            Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" m.name (json_value m.value) m.unit_)
          metrics));
  if not correct then exit 1
