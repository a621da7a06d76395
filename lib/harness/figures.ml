open Simcore

type scale = Quick | Full

let scale_of_env () = if Sys.getenv_opt "NATTO_BENCH_FULL" <> None then Full else Quick

let seeds = function Quick -> [ 1 ] | Full -> [ 1; 2; 3; 4; 5 ]

(* Run length: the paper uses 60 s runs with 10 s warm-up/cool-down (§5.1);
   quick mode shrinks this (the DES is deterministic, percentiles stabilize
   fast) and shortens further at very high rates. *)
let driver_config scale ~rate =
  let base = Workload.Driver.default_config in
  match scale with
  | Full ->
      {
        base with
        Workload.Driver.rate_tps = rate;
        duration = Sim_time.seconds 60.;
        warmup = Sim_time.seconds 10.;
        cooldown = Sim_time.seconds 10.;
        drain = Sim_time.seconds 60.;
      }
  | Quick ->
      let dur = if rate > 1200. then 4. else if rate > 400. then 6. else 16. in
      {
        base with
        Workload.Driver.rate_tps = rate;
        duration = Sim_time.seconds dur;
        warmup = Sim_time.seconds (dur /. 4.);
        cooldown = Sim_time.seconds (dur /. 4.);
        drain = Sim_time.seconds 25.;
      }

(* A figure row is declared once, as named cells: [emit] prints the CSV
   line from it and records the same cells, exact, for the JSON. *)
type value = Int of int | Float of int * float | Str of string | Json_only of Trace.json
type row = (string * value) list
type results = { figures : (string * row list) list; messages : Trace.t option }

(* What a running figure writes into: its rows (newest first), whether the
   current block still owes its header line, and, when messages are
   counted, the invocation's totals sink. Only the main domain touches it;
   workers count into their own per-run sinks. *)
type ctx = {
  name : string;
  scale : scale;
  traffic : Trace.t option;
  mutable header_due : bool;
  mutable rev_rows : row list;
}

let csv_text = function
  | Int n -> Some (string_of_int n)
  | Float (decimals, f) -> Some (Printf.sprintf "%.*f" decimals f)
  | Str s -> Some s
  | Json_only _ -> None

let json_value = function
  | Int n -> Trace.Int n
  | Float (_, f) -> Trace.Float f
  | Str s -> Trace.String s
  | Json_only j -> j

(* A block is a caption line; its header is the first printed row's
   column names. *)
let block c caption =
  Printf.printf "\n# %s — %s\n%!" c.name caption;
  c.header_due <- true

(* Every row leads with the figure's name; a row of JSON-only cells prints
   nothing. *)
let emit c cells =
  let printed =
    List.filter_map (fun (col, v) -> Option.map (fun s -> (col, s)) (csv_text v)) cells
  in
  if printed <> [] then begin
    if c.header_due then begin
      print_endline (String.concat "," ("figure" :: List.map fst printed));
      c.header_due <- false
    end;
    Printf.printf "%s\n%!" (String.concat "," (c.name :: List.map snd printed))
  end;
  c.rev_rows <- (("figure", Str c.name) :: cells) :: c.rev_rows

let run_cell c ?check ?faults ?metrics setup spec ~gen ~seed =
  Experiment.run_outcome ?check ?faults ?metrics ~counters:(Option.is_some c.traffic) setup
    spec ~gen ~seed

(* One checked run per seed: the latency figures all run under the
   checker, and merging raises on a violation. *)
let checked_runs c ?faults setup spec ~gen =
  List.map (fun seed -> run_cell c ~check:true ?faults setup spec ~gen ~seed) (seeds c.scale)

(* The main-domain half of every figure run: fold its message counts into
   the totals; [merge] then asserts its check report and returns its
   result. *)
let tally c o =
  match (c.traffic, o.Experiment.o_trace) with
  | Some into, Some t -> Trace.absorb ~into t
  | _ -> ()

let merge c o =
  tally c o;
  Experiment.merge_outcome o

let metered c o =
  tally c o;
  Option.get o.Experiment.o_metrics

(* The latency-summary row of the sweeps and the ablation. [spec_aborts]
   (the deterministic families' in-epoch re-executions) is JSON-only. *)
let row c x_label x system (s : Experiment.summary) =
  emit c
    [
      ("x_label", Str x_label);
      ("x", Str x);
      ("system", Str system);
      ("p95_high_ms", Float (1, s.Experiment.p95_high_ms));
      ("p95_high_ci", Float (1, s.Experiment.p95_high_ci));
      ("p95_low_ms", Float (1, s.Experiment.p95_low_ms));
      ("p95_low_ci", Float (1, s.Experiment.p95_low_ci));
      ("goodput_high_tps", Float (1, s.Experiment.goodput_high_tps));
      ("goodput_low_tps", Float (1, s.Experiment.goodput_low_tps));
      ("failed", Int s.Experiment.failed);
      ("aborts", Int s.Experiment.aborts);
      ("spec_aborts", Json_only (Trace.Int s.Experiment.spec_aborts));
    ]

(* Parallel cell fan-out: every (x, system) cell of a figure is an
   independent batch of simulations, so cells are farmed out to the
   Domain pool, each worker returning its runs' observations as values
   ([Experiment.outcome]). The main domain then walks the cells in the
   exact sequential order, merging outcomes (message totals, checker
   assertions) and printing rows — which is what keeps the CSV stream and
   the recorded rows byte-for-byte identical to a [--jobs 1] run. *)
let map_cells cells f = Pool.map_ordered_auto f cells

let sweep ~caption ~x_label ~setup_of ~gen_of ~xs ~systems ~show c =
  block c caption;
  let cells = List.concat_map (fun x -> List.map (fun spec -> (x, spec)) systems) xs in
  let outcomes =
    map_cells cells (fun (x, spec) -> checked_runs c (setup_of x) spec ~gen:(gen_of x))
  in
  List.iter2
    (fun (x, spec) outs ->
      let summary = Experiment.summarize (List.map (merge c) outs) in
      row c x_label (show x) (Experiment.spec_name spec) summary)
    cells outcomes

let table1 _ =
  Printf.printf "\n# Table 1 — network roundtrip delays between datacenters (ms)\n";
  Format.printf "%a@." Netsim.Topology.pp Netsim.Topology.azure5

(* ------------------------------------------------------------------ *)
(* Fig. 7: input-rate sweeps *)

let fig7_ycsbt c =
  let gen = Workload.Ycsbt.gen () in
  sweep
    ~caption:
      "YCSB+T (local cluster), 95P latency vs input rate; Fig 7(b)'s x-axis is the goodput \
       column"
    ~x_label:"rate_tps"
    ~setup_of:(fun rate ->
      { Experiment.default_setup with Experiment.driver = driver_config c.scale ~rate })
    ~gen_of:(fun _ -> gen)
    ~xs:[ 50.; 150.; 250.; 350. ]
    ~systems:Experiment.eleven_systems ~show:string_of_float c

let fig7_retwis c =
  let gen = Workload.Retwis.gen () in
  sweep ~caption:"Retwis (Azure), 95P latency vs input rate" ~x_label:"rate_tps"
    ~setup_of:(fun rate ->
      { Experiment.default_setup with Experiment.driver = driver_config c.scale ~rate })
    ~gen_of:(fun _ -> gen)
    ~xs:[ 100.; 500.; 1000.; 1500. ]
    ~systems:Experiment.eight_systems ~show:string_of_float c

let fig7_smallbank c =
  let gen = Workload.Smallbank.gen () in
  sweep ~caption:"SmallBank (Azure), 95P latency vs input rate" ~x_label:"rate_tps"
    ~setup_of:(fun rate ->
      { Experiment.default_setup with Experiment.driver = driver_config c.scale ~rate })
    ~gen_of:(fun _ -> gen)
    ~xs:[ 500.; 1000.; 1500.; 2000. ]
    ~systems:Experiment.eight_systems ~show:string_of_float c

(* ------------------------------------------------------------------ *)
(* Fig. 8: contention (Zipf coefficient) sweeps *)

let fig8_ycsbt c =
  sweep ~caption:"YCSB+T @50 txn/s, 95P high-priority latency vs Zipf coefficient"
    ~x_label:"zipf"
    ~setup_of:(fun _ ->
      { Experiment.default_setup with Experiment.driver = driver_config c.scale ~rate:50. })
    ~gen_of:(fun theta -> Workload.Ycsbt.gen ~theta ())
    ~xs:[ 0.65; 0.75; 0.85; 0.95 ]
    ~systems:Experiment.eleven_systems ~show:string_of_float c

let fig8_retwis c =
  sweep ~caption:"Retwis @100 txn/s, 95P high-priority latency vs Zipf coefficient"
    ~x_label:"zipf"
    ~setup_of:(fun _ ->
      { Experiment.default_setup with Experiment.driver = driver_config c.scale ~rate:100. })
    ~gen_of:(fun theta -> Workload.Retwis.gen ~theta ())
    ~xs:[ 0.65; 0.75; 0.85; 0.95 ]
    ~systems:Experiment.eight_systems ~show:string_of_float c

(* ------------------------------------------------------------------ *)
(* Fig. 9: high-priority percentage sweep *)

let fig9 c =
  let gen = Workload.Ycsbt.gen () in
  sweep ~caption:"YCSB+T @350 txn/s, 95P high-priority latency vs high-priority percentage"
    ~x_label:"high_pct"
    ~setup_of:(fun pct ->
      let driver =
        { (driver_config c.scale ~rate:350.) with Workload.Driver.high_fraction = pct /. 100. }
      in
      { Experiment.default_setup with Experiment.driver })
    ~gen_of:(fun _ -> gen)
    ~xs:[ 10.; 20.; 40.; 60.; 80.; 100. ]
    ~systems:Experiment.twopl_and_recsf ~show:string_of_float c

(* ------------------------------------------------------------------ *)
(* Fig. 10: SmallBank with sendPayment as the high-priority class *)

let fig10 c =
  block c
    "SmallBank with sendPayment=high, 95P high-priority latency and its increase ratio vs \
     the 100 txn/s baseline";
  let gen = Workload.Smallbank.gen ~prioritize_send_payment:true () in
  let rates = [ 100.; 1500.; 3500.; 6000. ] in
  let cells =
    List.concat_map
      (fun spec -> List.map (fun rate -> (spec, rate)) rates)
      Experiment.twopl_and_recsf
  in
  let outcomes =
    map_cells cells (fun (spec, rate) ->
        let setup =
          { Experiment.default_setup with Experiment.driver = driver_config c.scale ~rate }
        in
        checked_runs c setup spec ~gen)
  in
  (* The 100 txn/s baseline each ratio is computed against is the first
     rate of the system's cells, so emission walks rates in order. *)
  let baseline = ref nan in
  List.iter2
    (fun (spec, rate) outs ->
      if rate = List.hd rates then baseline := nan;
      let summary = Experiment.summarize (List.map (merge c) outs) in
      if Float.is_nan !baseline then baseline := summary.Experiment.p95_high_ms;
      let increase_pct =
        100. *. (summary.Experiment.p95_high_ms -. !baseline) /. !baseline
      in
      emit c
        [
          ("x_label", Str "rate_tps");
          ("x", Float (0, rate));
          ("system", Str (Experiment.spec_name spec));
          ("p95_high_ms", Float (1, summary.Experiment.p95_high_ms));
          ("p95_high_ci", Float (1, summary.Experiment.p95_high_ci));
          ("increase_pct", Float (1, increase_pct));
        ])
    cells outcomes

(* ------------------------------------------------------------------ *)
(* Fig. 11 and 12: network pathologies *)

let fig11 c =
  let gen = Workload.Ycsbt.gen () in
  sweep ~caption:"YCSB+T @350 txn/s, 95P high-priority latency vs network delay variance"
    ~x_label:"variance_pct"
    ~setup_of:(fun pct ->
      let net_config =
        {
          Netsim.Network.default_config with
          Netsim.Network.cv_override = (if pct = 0. then None else Some (pct /. 100.));
        }
      in
      {
        Experiment.default_setup with
        Experiment.net_config;
        Experiment.driver = driver_config c.scale ~rate:350.;
      })
    ~gen_of:(fun _ -> gen)
    ~xs:[ 0.; 5.; 15.; 25.; 40. ]
    ~systems:Experiment.eight_systems ~show:string_of_float c

let fig12 c =
  let gen = Workload.Ycsbt.gen () in
  sweep ~caption:"YCSB+T @100 txn/s, 95P high-priority latency vs packet loss"
    ~x_label:"loss_pct"
    ~setup_of:(fun pct ->
      let net_config =
        { Netsim.Network.default_config with Netsim.Network.loss = pct /. 100. }
      in
      {
        Experiment.default_setup with
        Experiment.net_config;
        Experiment.driver = driver_config c.scale ~rate:100.;
      })
    ~gen_of:(fun _ -> gen)
    ~xs:[ 0.; 0.5; 1.0; 1.5; 2.0; 2.5; 3.0 ]
    ~systems:Experiment.eight_systems ~show:string_of_float c

(* ------------------------------------------------------------------ *)
(* Fig. 13: hybrid cloud *)

let fig13 c =
  let gen = Workload.Retwis.gen () in
  sweep ~caption:"Retwis @1000 txn/s on hybrid AWS+Azure, 95P high-priority latency"
    ~x_label:"deployment"
    ~setup_of:(fun _ ->
      {
        Experiment.default_setup with
        Experiment.topo = Netsim.Topology.hybrid_aws_azure;
        Experiment.driver = driver_config c.scale ~rate:1000.;
      })
    ~gen_of:(fun _ -> gen) ~xs:[ "hybrid" ] ~systems:Experiment.eight_systems ~show:Fun.id c

(* ------------------------------------------------------------------ *)
(* Fig. 14: throughput scaling on the local cluster *)

let fig14 c =
  block c
    "Peak throughput (committed txn/s) vs number of partitions; uniform Retwis, 3 local DCs";
  let gen = Workload.Retwis.gen ~theta:0.0 () in
  let systems =
    [
      Experiment.Twopl Twopl.Plain;
      Experiment.Twopl Twopl.Preempt;
      Experiment.Twopl Twopl.Preempt_on_wait;
      Experiment.Tapir;
      Experiment.Carousel_basic;
      Experiment.Carousel_fast;
      Experiment.Natto Natto.Features.recsf;
    ]
  in
  (* The local-cluster machines each host one leader and two followers
     (§5.6), so the per-node station is given the full per-RPC cost. *)
  let net_config =
    { Netsim.Network.default_config with Netsim.Network.msg_cost = Sim_time.us 25 }
  in
  let partitions = match c.scale with Quick -> [ 2; 4; 8; 12 ] | Full -> [ 2; 4; 6; 8; 10; 12 ] in
  let duration = match c.scale with Quick -> 3. | Full -> 10. in
  let cells =
    List.concat_map
      (fun n_partitions -> List.map (fun spec -> (n_partitions, spec)) systems)
      partitions
  in
  let outcomes =
    map_cells cells (fun (n_partitions, spec) ->
        (* Ramp the offered load; the peak goodput is picked at merge time. *)
        let rates =
          let factors =
            match c.scale with
            | Quick -> [ 700.; 1400. ]
            | Full -> [ 500.; 1000.; 1500.; 2000.; 2500. ]
          in
          List.map (fun f -> f *. float_of_int n_partitions) factors
        in
        List.map
          (fun rate ->
            let driver =
              {
                (driver_config c.scale ~rate) with
                Workload.Driver.duration = Sim_time.seconds duration;
                warmup = Sim_time.seconds (duration /. 4.);
                cooldown = Sim_time.seconds (duration /. 4.);
                drain = Sim_time.seconds 10.;
              }
            in
            let setup =
              {
                Experiment.default_setup with
                Experiment.topo = Netsim.Topology.local3;
                Experiment.n_partitions;
                Experiment.net_config;
                Experiment.driver;
              }
            in
            run_cell c ~check:true setup spec ~gen ~seed:1)
          rates)
  in
  List.iter2
    (fun (n_partitions, spec) outs ->
      let best =
        List.fold_left
          (fun best o ->
            let r = merge c o in
            let goodput =
              r.Workload.Driver.goodput_high_tps +. r.Workload.Driver.goodput_low_tps
            in
            if goodput > best then goodput else best)
          0.0 outs
      in
      emit c
        [
          ("x_label", Str "partitions");
          ("x", Int n_partitions);
          ("system", Str (Experiment.spec_name spec));
          ("peak_goodput_tps", Float (0, best));
        ])
    cells outcomes

(* ------------------------------------------------------------------ *)
(* Ablations: design knobs the paper mentions but does not sweep. *)

let ablation c =
  block c
    "Natto design knobs @350 txn/s YCSB+T zipf 0.75: completion-estimate refinement, \
     starvation promotion, timestamp pad";
  let gen = Workload.Ycsbt.gen ~theta:0.75 () in
  let variants =
    [
      ("recsf-default", Natto.Features.recsf);
      ( "recsf-no-completion-estimate",
        { Natto.Features.recsf with Natto.Features.pa_completion_estimate = false } );
      ( "recsf-promote-after-2-aborts",
        { Natto.Features.recsf with Natto.Features.promote_after_aborts = Some 2 } );
      ("recsf-pad-0ms", { Natto.Features.recsf with Natto.Features.ts_pad = Sim_time.zero });
      ( "recsf-pad-10ms",
        { Natto.Features.recsf with Natto.Features.ts_pad = Sim_time.ms 10. } );
    ]
  in
  let outcomes =
    map_cells variants (fun (_label, features) ->
        let setup =
          { Experiment.default_setup with Experiment.driver = driver_config c.scale ~rate:350. }
        in
        checked_runs c setup (Experiment.Natto features) ~gen)
  in
  List.iter2
    (fun (label, _features) outs ->
      let summary = Experiment.summarize (List.map (merge c) outs) in
      row c "variant" label label summary)
    variants outcomes

(* ------------------------------------------------------------------ *)
(* Failure experiments: recovery around a partition-leader crash. *)

let failover c =
  block c
    "YCSB+T @100 txn/s; partition 0's leader crashes at t=1/3 of the run and restarts at \
     t=2/3; high-priority p95 per phase from the per-commit log";
  let dur = match c.scale with Quick -> 24. | Full -> 48. in
  let crash_t = dur /. 3. and heal_t = 2. *. dur /. 3. in
  (* The recovered phase starts a little after the heal: the retry backlog
     accumulated during the outage drains within a couple of seconds, and
     the question is the steady state it returns to, not the drain. *)
  let settle_t = heal_t +. 2. in
  let schedule =
    [
      { Faults.at = Sim_time.seconds crash_t; action = Faults.Crash (Faults.Leader_of 0) };
      { Faults.at = Sim_time.seconds heal_t; action = Faults.Restart_all };
    ]
  in
  let gen = Workload.Ycsbt.gen () in
  let driver =
    {
      (driver_config c.scale ~rate:100.) with
      Workload.Driver.duration = Sim_time.seconds dur;
      warmup = Sim_time.seconds 1.;
      cooldown = Sim_time.seconds 1.;
      (* TAPIR's symmetric OCC aborts make its post-outage retry backlog the
         slowest to clear; give every system the same generous drain so the
         unfinished column measures hangs, not an early cutoff. *)
      drain = Sim_time.seconds 60.;
    }
  in
  let setup = { Experiment.default_setup with Experiment.driver } in
  let systems = Experiment.one_per_family in
  let outcomes =
    map_cells systems (fun spec -> checked_runs c ~faults:schedule setup spec ~gen)
  in
  List.iter2
    (fun spec outs ->
      let results = List.map (merge c) outs in
      (* Phases are bucketed by submission time, pooled across seeds. *)
      let entries =
        List.concat_map (fun r -> Array.to_list r.Workload.Driver.commit_log) results
      in
      let p95_phase lo hi =
        let a =
          List.filter_map
            (fun (born, lat, high) ->
              if high && born >= lo && born < hi then Some lat else None)
            entries
          |> Array.of_list
        in
        if Array.length a = 0 then nan else Simstats.Percentile.p95 a
      in
      let before = p95_phase 0. crash_t
      and during = p95_phase crash_t heal_t
      and after = p95_phase settle_t infinity in
      let commits_after_heal =
        List.fold_left (fun acc (born, _, _) -> if born >= heal_t then acc + 1 else acc) 0 entries
      in
      let unfinished =
        List.fold_left (fun acc r -> acc + r.Workload.Driver.unfinished) 0 results
      in
      emit c
        [
          ("system", Str (Experiment.spec_name spec));
          ("p95_high_before_ms", Float (1, before));
          ("p95_high_during_ms", Float (1, during));
          ("p95_high_after_ms", Float (1, after));
          ("recovery_ratio", Float (2, after /. before));
          ("commits_after_heal", Int commits_after_heal);
          ("unfinished", Int unfinished);
        ])
    systems outcomes

(* ------------------------------------------------------------------ *)
(* Checker figure: the strict-serializability checker run explicitly over
   one system per protocol family at high contention, with and without
   faults. Every other figure also runs under the checker (any violation
   raises), but this one reports the history sizes and the verdicts as
   data, and covers the fault schedules the latency figures do not. *)

let check_figure c =
  block c
    "strict-serializability verdicts, YCSB+T zipf 0.95 @100 txn/s per family";
  let gen = Workload.Ycsbt.gen ~theta:0.95 () in
  let dur = match c.scale with Quick -> 8. | Full -> 24. in
  let driver =
    {
      (driver_config c.scale ~rate:100.) with
      Workload.Driver.duration = Sim_time.seconds dur;
      warmup = Sim_time.seconds 1.;
      cooldown = Sim_time.seconds 1.;
      drain = Sim_time.seconds 60.;
    }
  in
  let setup = { Experiment.default_setup with Experiment.driver } in
  (* Leader crash plus a DC cut — the PR2 recovery schedule: both kinds of
     fault the checker must see through (phantom commits, retried reads). *)
  let fault_schedule =
    [
      {
        Faults.at = Sim_time.seconds (dur /. 4.);
        action = Faults.Crash (Faults.Leader_of 0);
      };
      { Faults.at = Sim_time.seconds (dur *. 3. /. 8.); action = Faults.Partition (0, 1) };
      { Faults.at = Sim_time.seconds (dur /. 2.); action = Faults.Heal_all };
      { Faults.at = Sim_time.seconds (dur *. 5. /. 8.); action = Faults.Restart_all };
    ]
  in
  let schedules = [ ("none", None); ("crash+cut", Some fault_schedule) ] in
  let cells =
    List.concat_map
      (fun sched -> List.map (fun spec -> (sched, spec)) Experiment.one_per_family)
      schedules
  in
  let outcomes =
    map_cells cells (fun ((_label, faults), spec) ->
        run_cell c ?faults ~check:true setup spec ~gen ~seed:(List.hd (seeds c.scale)))
  in
  List.iter2
    (fun ((label, _faults), spec) o ->
      tally c o;
      let history, report = Option.get o.Experiment.o_check in
      let n_violations = List.length report.Check.Checker.violations in
      emit c
        [
          ("schedule", Str label);
          ("system", Str (Experiment.spec_name spec));
          ("committed_txns", Int report.Check.Checker.checked_txns);
          ("graph_edges", Int report.Check.Checker.edges);
          ("violations", Int n_violations);
        ];
      if n_violations > 0 then begin
        print_string (Check.Checker.render history report);
        failwith
          (Printf.sprintf "%s figure: %s under schedule %s violated serializability" c.name
             (Experiment.spec_name spec) label)
      end)
    cells outcomes

(* ------------------------------------------------------------------ *)
(* Attribution: where does commit latency go, per family? The Fig. 7(c)
   story in breakdown form — 2PL's p99 is dominated by lock waiting,
   Carousel by WAN round trips, and Natto shifts low-priority time into
   retry (backoff) and queue (lock_wait) segments to protect the high
   class. *)

let attribution c =
  block c "commit-latency critical path, YCSB+T zipf 0.95 @100 txn/s per family";
  let gen = Workload.Ycsbt.gen ~theta:0.95 () in
  let setup =
    { Experiment.default_setup with Experiment.driver = driver_config c.scale ~rate:100. }
  in
  let systems = Experiment.one_per_family in
  let outcomes =
    map_cells systems (fun spec ->
        run_cell c ~metrics:true setup spec ~gen ~seed:(List.hd (seeds c.scale)))
  in
  List.iter2
    (fun spec o ->
      let m = metered c o in
      let system = Experiment.spec_name spec in
      let aggs = Metrics.Attribution.by_class m.Experiment.m_breakdowns in
      List.iter
        (fun (label, (agg : Metrics.Attribution.agg)) ->
          let pct = Metrics.Attribution.share_pct agg.Metrics.Attribution.mean_us in
          emit c
            ([
               ("system", Str system);
               ("class", Str label);
               ("n", Int agg.Metrics.Attribution.n);
               ("e2e_mean_ms", Float (1, agg.Metrics.Attribution.e2e_mean_ms));
               ("e2e_p95_ms", Float (1, agg.Metrics.Attribution.e2e_p95_ms));
               ("e2e_p99_ms", Float (1, agg.Metrics.Attribution.e2e_p99_ms));
             ]
            @ List.map
                (fun name -> (name ^ "_pct", Float (1, pct name)))
                Metrics.Attribution.segment_names))
        aggs;
      (* Human-readable block, "#"-prefixed so CSV consumers skip it. *)
      String.split_on_char '\n' (Metrics.Attribution.render ~title:system aggs)
      |> List.iter (fun line -> if line <> "" then Printf.printf "# %s\n" line);
      flush stdout)
    systems outcomes

(* ------------------------------------------------------------------ *)
(* Batch sweep: the group-commit batching layer's throughput story.
   Uniform Retwis on the 3-DC local cluster — the CPU-bound regime where
   per-message receive cost dominates and batching has something to
   amortize. Offered load ramps from idle to far past saturation, once
   with batching off and once with the adaptive batcher on. Each mode's
   sustainable throughput is summarized by its knee: the highest measured
   goodput among rates whose overall p95 stays within 2x that mode's
   idle-load p95. Envelope occupancy and flush-reason counts show where
   the amortization comes from (idle flushes at light load, timer/size
   flushes under pressure), and the metered mid-ladder rung of each mode
   shows the batching segment appearing in the latency attribution while
   cpu_queue shrinks. *)

let batchsweep c =
  block c
    "adaptive group-commit batching: goodput and p95 vs offered load, batched vs unbatched; \
     uniform Retwis, 3 local DCs, 4 partitions";
  let gen = Workload.Retwis.gen ~theta:0.0 () in
  let n_partitions = 4 in
  (* Same per-RPC station cost as fig14's local cluster. *)
  let net_config =
    { Netsim.Network.default_config with Netsim.Network.msg_cost = Sim_time.us 25 }
  in
  let duration = match c.scale with Quick -> 2. | Full -> 6. in
  (* Per-mode ladders: both modes share the low rungs; the unbatched ladder
     stops one rung past its collapse (deep-overload cells simulate an
     ever-growing backlog and cost minutes for no information), while the
     batched ladder keeps climbing until the amortized commit path
     saturates. *)
  let scaled fs = List.map (fun f -> f *. float_of_int n_partitions) fs in
  let rates_unbatched =
    scaled
      (match c.scale with
      | Quick -> [ 50.; 200.; 400.; 800.; 1600. ]
      | Full -> [ 50.; 100.; 200.; 400.; 600.; 800.; 1200.; 1600. ])
  in
  let rates_batched =
    rates_unbatched
    @ scaled
        (match c.scale with
        | Quick -> [ 2400.; 3200.; 4000.; 4800.; 5600. ]
        | Full -> [ 2000.; 2400.; 2800.; 3200.; 3600.; 4000.; 4400.; 4800.; 5200.; 5600. ])
  in
  let modes = [ ("unbatched", None); ("batched", Some Rpc.Batcher.default_config) ] in
  let rates_of = function "batched" -> rates_batched | _ -> rates_unbatched in
  let spec = Experiment.Natto Natto.Features.recsf in
  let setup_of ~batching ~rate =
    let driver =
      {
        (driver_config c.scale ~rate) with
        Workload.Driver.duration = Sim_time.seconds duration;
        warmup = Sim_time.seconds (duration /. 4.);
        cooldown = Sim_time.seconds (duration /. 4.);
        drain = Sim_time.seconds 5.;
      }
    in
    {
      Experiment.default_setup with
      Experiment.topo = Netsim.Topology.local3;
      Experiment.n_partitions;
      Experiment.net_config;
      Experiment.driver;
      Experiment.batching = batching;
    }
  in
  let cells =
    List.concat_map (fun ((name, _) as mode) -> List.map (fun r -> (mode, r)) (rates_of name)) modes
  in
  (* The mid-ladder rung both modes share carries the attribution evidence. *)
  let attr_rate = 400. *. float_of_int n_partitions in
  let outcomes =
    map_cells cells (fun ((_mode, batching), rate) ->
        (* The history checker is O(committed txns); running it on the
           low-rate rungs proves batched histories stay serializable
           without dominating the sweep's cost (ci.sh gates the rest). *)
        run_cell c ~check:(rate <= 1000.) ~metrics:(rate = attr_rate)
          (setup_of ~batching ~rate) spec ~gen ~seed:1)
  in
  let p95 a = if Array.length a = 0 then nan else Simstats.Percentile.p95 a in
  let curves = ref [] in
  (* mode -> (rate, goodput, p95) in ladder order *)
  List.iter2
    (fun ((mode, _batching), rate) o ->
      let r = merge c o in
      let goodput = r.Workload.Driver.goodput_high_tps +. r.Workload.Driver.goodput_low_tps in
      let p95_all =
        p95 (Array.append r.Workload.Driver.high_latencies_ms r.Workload.Driver.low_latencies_ms)
      in
      let p95_high = p95 r.Workload.Driver.high_latencies_ms in
      let envelopes, batched_msgs, per_env, flushes, occupancy, hold_ms =
        match o.Experiment.o_batch with
        | None -> (0, 0, 0., [], [||], 0.)
        | Some s ->
            ( s.Rpc.Batcher.s_envelopes,
              s.Rpc.Batcher.s_messages,
              Rpc.Batcher.mean_occupancy s,
              s.Rpc.Batcher.s_flushes,
              s.Rpc.Batcher.s_occupancy,
              float_of_int s.Rpc.Batcher.s_hold_us /. 1000. )
      in
      let flush name = Int (try List.assoc name flushes with Not_found -> 0) in
      (* The total hold time and the nonzero occupancy buckets ride along in
         the JSON, so BENCH_results.json carries the full envelope-size
         histogram, not just its mean. *)
      let occ_cells =
        Array.to_list occupancy
        |> List.mapi (fun n c -> (n, c))
        |> List.filter (fun (_, c) -> c > 0)
        |> List.map (fun (n, c) -> (Printf.sprintf "occ_%d" n, Json_only (Trace.Int c)))
      in
      emit c
        ([
           ("mode", Str mode);
           ("rate_tps", Float (0, rate));
           ("goodput_tps", Float (1, goodput));
           ("p95_ms", Float (1, p95_all));
           ("p95_high_ms", Float (1, p95_high));
           ("envelopes", Int envelopes);
           ("batched_msgs", Int batched_msgs);
           ("msgs_per_envelope", Float (2, per_env));
           ("hold_total_ms", Json_only (Trace.Float hold_ms));
           ("flush_idle", flush "idle");
           ("flush_timer", flush "timer");
           ("flush_size", flush "size");
           ("flush_bytes", flush "bytes");
           ("flush_cut", flush "cut");
         ]
        @ occ_cells);
      curves := (mode, rate, goodput, p95_all) :: !curves)
    cells outcomes;
  let curve mode =
    List.rev !curves
    |> List.filter_map (fun (m, rate, g, p) -> if m = mode then Some (rate, g, p) else None)
  in
  (* Knee: highest goodput among ladder rungs whose p95 is still within 2x
     the idle (lowest-rate) p95 — "throughput you can have without giving
     up latency". *)
  let knee mode =
    match curve mode with
    | [] -> (nan, nan)
    | (_, _, idle_p95) :: _ as pts ->
        let k =
          List.fold_left
            (fun best (_, g, p) -> if p <= 2. *. idle_p95 && g > best then g else best)
            0. pts
        in
        (k, idle_p95)
  in
  let k_un, idle_un = knee "unbatched" in
  let k_b, idle_b = knee "batched" in
  block c "knee goodput per mode (highest goodput with p95 within 2x the idle p95)";
  List.iter
    (fun (mode, k, idle) ->
      emit c
        [
          ("mode", Str mode);
          ("knee_goodput_tps", Float (1, k));
          ("idle_p95_ms", Float (1, idle));
          ("batched_over_unbatched", Float (2, k_b /. k_un));
        ])
    [ ("unbatched", k_un, idle_un); ("batched", k_b, idle_b) ];
  (* Attribution evidence at the mid-ladder rate: the batched run's critical
     path gains a batching segment (time held in envelopes) while the
     cpu_queue share shrinks — the amortization made visible per txn. *)
  block c (Printf.sprintf "critical-path shares per mode at the shared %.0f txn/s rung" attr_rate);
  List.iter2
    (fun ((mode, _), _rate) o ->
      match
        Option.bind o.Experiment.o_metrics (fun m ->
            Metrics.Attribution.aggregate m.Experiment.m_breakdowns)
      with
      | None -> ()
      | Some a ->
          let pct name = Float (1, Metrics.Attribution.share_pct a.Metrics.Attribution.mean_us name) in
          emit c
            [
              ("mode", Str mode);
              ("e2e_mean_ms", Float (1, a.Metrics.Attribution.e2e_mean_ms));
              ("batching_pct", pct "batching");
              ("replication_pct", pct "replication");
              ("cpu_queue_pct", pct "cpu_queue");
              ("wan_pct", pct "wan");
            ])
    cells outcomes

(* ------------------------------------------------------------------ *)
(* simthroughput: raw simulator throughput (engine events per wall
   second). Not part of [all]: the wall-clock fields are inherently
   machine- and load-dependent, so the figure is opt-in (bench
   simthroughput, ci.sh smoke) to keep the default BENCH_results.json
   byte-comparable across job counts. The [events] field, by contrast,
   is deterministic per cell and doubles as a regression lock: any
   change in event count means the simulation itself changed. *)

let simthroughput c =
  block c "simulator events/sec (gated; wall-clock fields vary by machine)";
  let spec = Experiment.Natto Natto.Features.recsf in
  let gen = Workload.Ycsbt.gen () in
  let cell ~x_label ~x ~jobs ~seeds setup =
    let t0 = Unix.gettimeofday () in
    let outs = Pool.map_ordered ~jobs (fun seed -> run_cell c setup spec ~gen ~seed) seeds in
    let wall = Unix.gettimeofday () -. t0 in
    List.iter (tally c) outs;
    let events = List.fold_left (fun acc o -> acc + o.Experiment.o_events) 0 outs in
    emit c
      [
        ("x_label", Str x_label);
        ("x", Int x);
        ("system", Str (Experiment.spec_name spec));
        ("events", Int events);
        ("wall_s", Float (3, wall));
        ("events_per_sec", Float (0, if wall > 0. then float_of_int events /. wall else 0.));
      ]
  in
  let driver = driver_config c.scale ~rate:100. in
  (* Series 1: events/sec as the cluster grows (more partitions means more
     replication groups, probe targets and messages per transaction). *)
  let sizes = match c.scale with Quick -> [ 5; 10; 15 ] | Full -> [ 5; 10; 20 ] in
  List.iter
    (fun n_partitions ->
      cell ~x_label:"partitions" ~x:n_partitions ~jobs:1 ~seeds:[ 1 ]
        { Experiment.default_setup with Experiment.n_partitions; driver })
    sizes;
  (* Series 2: events/sec as seeds are farmed across domains. The [events]
     column must be identical in every row — the jobs knob may only change
     wall clock, never the simulation. *)
  let seed_batch = [ 1; 2; 3; 4 ] in
  List.iter
    (fun jobs ->
      cell ~x_label:"jobs" ~x:jobs ~jobs ~seeds:seed_batch
        { Experiment.default_setup with Experiment.driver = driver })
    [ 1; 2; 4 ]

(* ------------------------------------------------------------------ *)
(* QueCC sweep: queue-oriented deterministic planning against Natto's
   prioritized timestamps across the contention range, head to head. Both
   QueCC variants plan contention away (zero client retries; the aborts
   column counts nothing but failover timeouts, and the collected
   spec_aborts field counts in-epoch re-executions), so the interesting
   comparison is the Zipf >= 0.99 tail where Natto's timestamp queues
   thrash on retries. *)

let queccsweep c =
  sweep
    ~caption:
      "QueCC (FIFO / priority-ordered) vs Natto TS/CP/RECSF, YCSB+T @100 txn/s vs Zipf theta"
    ~x_label:"zipf"
    ~setup_of:(fun _ ->
      { Experiment.default_setup with Experiment.driver = driver_config c.scale ~rate:100. })
    ~gen_of:(fun theta -> Workload.Ycsbt.gen ~theta ())
    ~xs:[ 0.8; 0.95; 0.99; 1.2 ]
    ~systems:
      [
        Experiment.Quecc Quecc.Fifo;
        Experiment.Quecc Quecc.Prio;
        Experiment.Natto Natto.Features.ts;
        Experiment.Natto Natto.Features.cp;
        Experiment.Natto Natto.Features.recsf;
      ]
    ~show:(Printf.sprintf "%.2f") c

(* ------------------------------------------------------------------ *)
(* Tail blame: the causal blame profiler's cross-family ranking. Every
   family runs under the metrics harness across the contention range and
   is scored on (a) priority-inversion µs — the high-blocked-by-low cell
   of the class×class blocked-time matrix — and (b) hot-key
   concentration, the share of all blamed wait-µs pinned on the hottest
   key(s). The headline at Zipf 0.99: Natto's prepared/waiting split and
   QueCC's priority-ordered planning should both show order-of-magnitude
   less high-class inversion than the no-priority 2PL baseline. *)

let tailblame c =
  block c
    "class x class blocked-us matrix, inversion and hot-key concentration, YCSB+T @20 txn/s \
     vs Zipf theta";
  (* Shorter, lighter cells than the latency figures: the profiler needs
     contention, not tight percentiles, and every cell carries a full-event
     trace. The rate is kept below the 2PL collapse point because blame
     profiles committed transactions — past collapse the baseline's
     worst-inverted high txns never commit, which undercounts precisely the
     inversion the figure exists to show. *)
  let driver =
    match c.scale with
    | Full -> driver_config c.scale ~rate:20.
    | Quick ->
        {
          (driver_config c.scale ~rate:20.) with
          Workload.Driver.duration = Sim_time.seconds 8.;
          warmup = Sim_time.seconds 2.;
          cooldown = Sim_time.seconds 2.;
        }
  in
  let setup = { Experiment.default_setup with Experiment.driver } in
  let systems =
    [
      Experiment.Twopl Twopl.Plain;
      Experiment.Tapir;
      Experiment.Carousel_fast;
      Experiment.Natto Natto.Features.ts;
      Experiment.Natto Natto.Features.cp;
      Experiment.Natto Natto.Features.recsf;
      Experiment.Quecc Quecc.Fifo;
      Experiment.Quecc Quecc.Prio;
    ]
  in
  let thetas = [ 0.8; 0.99; 1.2 ] in
  let cells = List.concat_map (fun th -> List.map (fun s -> (th, s)) systems) thetas in
  let outcomes =
    map_cells cells (fun (theta, spec) ->
        run_cell c ~metrics:true setup spec
          ~gen:(Workload.Ycsbt.gen ~theta ())
          ~seed:(List.hd (seeds c.scale)))
  in
  let rows =
    List.map2
      (fun (theta, spec) o ->
        let m = metered c o in
        let b = m.Experiment.m_blame in
        let system = Experiment.spec_name spec in
        let cell i j = Int b.Metrics.Blame.b_matrix.(i).(j) in
        let inv = Metrics.Blame.inversion_us b in
        let inv_per_high =
          if b.Metrics.Blame.b_n_high = 0 then 0.
          else float_of_int inv /. float_of_int b.Metrics.Blame.b_n_high
        in
        let hot1 = Metrics.Blame.hot_key_share b in
        emit c
          [
            ("zipf", Float (2, theta));
            ("system", Str system);
            ("n", Int b.Metrics.Blame.b_n);
            ("n_high", Int b.Metrics.Blame.b_n_high);
            ("hh_us", cell 0 0);
            ("hl_us", cell 0 1);
            ("hn_us", cell 0 2);
            ("lh_us", cell 1 0);
            ("ll_us", cell 1 1);
            ("ln_us", cell 1 2);
            ("wait_us", Int b.Metrics.Blame.b_wait_us);
            ("inversion_us", Int inv);
            ("inv_per_high_us", Float (1, inv_per_high));
            ("hot1_share", Float (3, hot1));
            ("hot8_share", Float (3, Metrics.Blame.hot_key_share ~k:8 b));
          ];
        (theta, system, inv, inv_per_high, hot1, m))
      cells outcomes
  in
  (* Per-theta ranking, "#"-prefixed so CSV consumers skip it. The
     no-priority 2PL baseline anchors the inversion ratios. *)
  List.iter
    (fun theta ->
      let at = List.filter (fun (th, _, _, _, _, _) -> th = theta) rows in
      let base =
        List.fold_left
          (fun acc (_, sys, inv, _, _, _) -> if sys = "2PL+2PC" then inv else acc)
          0 at
      in
      Printf.printf "# %s ranking @ zipf %.2f (inversion us, ascending; baseline %s)\n" c.name
        theta
        (if base > 0 then Printf.sprintf "2PL+2PC=%dus" base else "2PL+2PC=0us");
      List.stable_sort
        (fun (_, _, a, _, _, _) (_, _, b, _, _, _) -> compare a b)
        at
      |> List.iter (fun (_, sys, inv, inv_ph, hot1, _) ->
             let ratio =
               if inv > 0 && base > 0 then
                 Printf.sprintf "%.1fx less than baseline" (float_of_int base /. float_of_int inv)
               else if base > 0 then "no inversion"
               else "-"
             in
             Printf.printf "#   %-16s inversion=%8dus  per-high=%8.0fus  hot1=%.2f  (%s)\n"
               sys inv inv_ph hot1 ratio);
      flush stdout)
    thetas;
  (* Full blame report for the most contended point of the paper's
     headline systems, exemplar timelines included. *)
  List.iter
    (fun (theta, system, _, _, _, m) ->
      if theta = 0.99 && (system = "2PL+2PC" || system = "Natto-RECSF") then
        String.split_on_char '\n'
          (Metrics.Blame.render ~title:(Printf.sprintf "%s @ zipf %.2f" system theta)
             m.Experiment.m_blame)
        |> List.iter (fun line -> if line <> "" then Printf.printf "# %s\n" line))
    rows;
  flush stdout

(* ------------------------------------------------------------------ *)
(* Retry sweep: what partial aborts buy, per family, across the
   contention range. Every family that reports a first-invalidated key
   runs the same checked grid twice — resume-from-prefix off and on —
   so the pa column isolates the mechanism: claimed reads shrink retry
   payloads (read_reply bytes scale with values actually shipped),
   which shortens aborted attempts and frees link occupancy at the hot
   partitions. The first seed of every cell at the most contended point
   is also metered, splitting each aborted attempt's span into reused vs
   discarded µs (Attribution.wasted_work); the discarded-µs reduction the
   claims bought is printed "#"-prefixed so the CSV block stays
   machine-readable. *)

let retrysweep c =
  block c
    "partial aborts (resume from first invalidated read) off vs on, YCSB+T @100 txn/s vs \
     Zipf theta";
  let driver ~pa =
    let base =
      match c.scale with
      | Full -> driver_config c.scale ~rate:100.
      | Quick ->
          (* Shorter than the latency figures: the sweep needs retries and
             their reuse counters, not tight percentiles. *)
          {
            (driver_config c.scale ~rate:100.) with
            Workload.Driver.duration = Sim_time.seconds 6.;
            warmup = Sim_time.seconds 1.5;
            cooldown = Sim_time.seconds 1.5;
          }
    in
    { base with Workload.Driver.partial_abort = pa }
  in
  let setup_of ~pa = { Experiment.default_setup with Experiment.driver = driver ~pa } in
  let systems =
    [
      Experiment.Twopl Twopl.Plain;
      Experiment.Tapir;
      Experiment.Carousel_basic;
      Experiment.Carousel_fast;
      Experiment.Natto Natto.Features.ts;
      Experiment.Natto Natto.Features.recsf;
    ]
  in
  (* Quick mode trims the grid to the contention endpoints + the headline
     point; full mode sweeps the paper-style ladder. *)
  let thetas =
    match c.scale with Quick -> [ 0.8; 0.99; 1.2 ] | Full -> [ 0.8; 0.9; 0.99; 1.1; 1.2 ]
  in
  let modes = [ false; true ] in
  let wasted_theta = 0.99 in
  let cells =
    List.concat_map
      (fun theta ->
        List.concat_map (fun pa -> List.map (fun spec -> (theta, pa, spec)) systems) modes)
      thetas
  in
  let outcomes =
    map_cells cells (fun (theta, pa, spec) ->
        List.mapi
          (fun i seed ->
            run_cell c ~check:true
              ~metrics:(theta = wasted_theta && i = 0)
              (setup_of ~pa) spec
              ~gen:(Workload.Ycsbt.gen ~theta ())
              ~seed)
          (seeds c.scale))
  in
  List.iter2
    (fun (theta, pa, spec) outs ->
      let s = Experiment.summarize (List.map (merge c) outs) in
      emit c
        [
          ("zipf", Float (2, theta));
          ("pa", Str (if pa then "on" else "off"));
          ("system", Str (Experiment.spec_name spec));
          ("p95_high_ms", Float (1, s.Experiment.p95_high_ms));
          ("p95_low_ms", Float (1, s.Experiment.p95_low_ms));
          ("goodput_high_tps", Float (1, s.Experiment.goodput_high_tps));
          ("goodput_low_tps", Float (1, s.Experiment.goodput_low_tps));
          ("aborts", Int s.Experiment.aborts);
          ("partial_restarts", Int s.Experiment.partial_restarts);
          ("keys_reused", Int s.Experiment.keys_reused);
          ("keys_validated", Int s.Experiment.keys_validated);
        ])
    cells outcomes;
  (* Wasted-work evidence at the most contended paper point: how much
     aborted-attempt time the validated prefix reclaimed, off vs on. *)
  let wasted =
    List.combine cells outcomes
    |> List.concat_map (fun ((_theta, pa, spec), outs) ->
           List.filter_map
             (fun o ->
               Option.map
                 (fun m -> (spec, pa, Metrics.Attribution.wasted_work m.Experiment.m_breakdowns))
                 o.Experiment.o_metrics)
             outs)
  in
  Printf.printf
    "# %s wasted @ zipf %.2f: aborted-attempt us split (exec unchanged; reused + discarded \
     = backoff)\n"
    c.name wasted_theta;
  List.iter
    (fun spec ->
      let find pa =
        List.find_map
          (fun (s, p, w) -> if s == spec && p = pa then Some w else None)
          wasted
      in
      match (find false, find true) with
      | Some off, Some on ->
          let system = Experiment.spec_name spec in
          let reduction =
            if off.Metrics.Attribution.wk_discarded_us <= 0 then 0.
            else
              100.
              *. float_of_int
                   (off.Metrics.Attribution.wk_discarded_us
                   - on.Metrics.Attribution.wk_discarded_us)
              /. float_of_int off.Metrics.Attribution.wk_discarded_us
          in
          Printf.printf
            "# %s wasted: %s off: txns=%d exec=%dus discarded=%dus | on: txns=%d exec=%dus \
             reused=%dus discarded=%dus | discarded_reduction_pct=%.1f\n%!"
            c.name system off.Metrics.Attribution.wk_txns off.Metrics.Attribution.wk_exec_us
            off.Metrics.Attribution.wk_discarded_us on.Metrics.Attribution.wk_txns
            on.Metrics.Attribution.wk_exec_us on.Metrics.Attribution.wk_reused_us
            on.Metrics.Attribution.wk_discarded_us reduction;
          (* The "#" line above is the CSV's copy, so every cell is
             JSON-only. *)
          let us n = Json_only (Trace.Int n) in
          emit c
            [
              ("zipf", Json_only (Trace.Float wasted_theta));
              ("system", Json_only (Trace.String system));
              ("off_exec_us", us off.Metrics.Attribution.wk_exec_us);
              ("off_discarded_us", us off.Metrics.Attribution.wk_discarded_us);
              ("on_exec_us", us on.Metrics.Attribution.wk_exec_us);
              ("on_reused_us", us on.Metrics.Attribution.wk_reused_us);
              ("on_discarded_us", us on.Metrics.Attribution.wk_discarded_us);
              ("discarded_reduction_pct", Json_only (Trace.Float reduction));
            ]
      | _ -> ())
    systems

(* The figure table: every name the CLIs accept, in the order a full run
   prints them. The simulator-throughput figure is opt-in (see above), so
   it is appended after the run-everything part. *)
let everything =
  [
    ("table1", table1);
    ("fig7ab", fig7_ycsbt);
    ("fig7cd", fig7_retwis);
    ("fig7ef", fig7_smallbank);
    ("fig8a", fig8_ycsbt);
    ("fig8b", fig8_retwis);
    ("fig9", fig9);
    ("fig10", fig10);
    ("fig11", fig11);
    ("fig12", fig12);
    ("fig13", fig13);
    ("fig14", fig14);
    ("batchsweep", batchsweep);
    ("ablation", ablation);
    ("failover", failover);
    ("attribution", attribution);
    ("check", check_figure);
    ("queccsweep", queccsweep);
    ("tailblame", tailblame);
    ("retrysweep", retrysweep);
  ]

let table = everything @ [ ("simthroughput", simthroughput) ]
let names = List.map fst table
let all = List.map fst everything

let unknown ?(table = table) figures =
  List.find_opt (fun name -> not (List.mem_assoc name table)) figures

let run ?(count_messages = false) ?(table = table) scale figures =
  match unknown ~table figures with
  | Some name -> Error name
  | None ->
      let traffic =
        if count_messages then begin
          let t = Trace.create () in
          Trace.enable ~events:false t;
          Some t
        end
        else None
      in
      let figures =
        List.map
          (fun name ->
            let c = { name; scale; traffic; header_due = false; rev_rows = [] } in
            (List.assoc name table) c;
            (name, List.rev c.rev_rows))
          figures
      in
      Ok { figures; messages = traffic }

let json r =
  Trace.Obj
    (List.map
       (fun (name, rows) ->
         ( name,
           Trace.List
             (List.map
                (fun row -> Trace.Obj (List.map (fun (col, v) -> (col, json_value v)) row))
                rows) ))
       r.figures)
