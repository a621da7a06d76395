(* Command-line interface over the simulator: run any single experiment
   configuration, or regenerate a figure from the paper. *)

let system_names =
  [
    ("carousel-basic", Harness.Experiment.Carousel_basic);
    ("carousel-fast", Harness.Experiment.Carousel_fast);
    ("tapir", Harness.Experiment.Tapir);
    ("2pl", Harness.Experiment.Twopl Twopl.Plain);
    ("2pl-p", Harness.Experiment.Twopl Twopl.Preempt);
    ("2pl-pow", Harness.Experiment.Twopl Twopl.Preempt_on_wait);
    ("natto-ts", Harness.Experiment.Natto Natto.Features.ts);
    ("natto-lecsf", Harness.Experiment.Natto Natto.Features.lecsf);
    ("natto-pa", Harness.Experiment.Natto Natto.Features.pa);
    ("natto-cp", Harness.Experiment.Natto Natto.Features.cp);
    ("natto-recsf", Harness.Experiment.Natto Natto.Features.recsf);
    ("quecc", Harness.Experiment.Quecc Quecc.Fifo);
    ("quecc-prio", Harness.Experiment.Quecc Quecc.Prio);
  ]

let topo_names =
  [
    ("azure5", Netsim.Topology.azure5);
    ("hybrid", Netsim.Topology.hybrid_aws_azure);
    ("local3", Netsim.Topology.local3);
  ]

(* Workloads, like systems and topologies, live in one table that feeds both
   the dispatch and the --workload doc string, so the help text cannot drift
   from what the binary accepts. *)
let workload_names : (string * (zipf:float -> Workload.Gen.t)) list =
  [
    ("ycsbt", fun ~zipf -> Workload.Ycsbt.gen ~theta:zipf ());
    ("retwis", fun ~zipf -> Workload.Retwis.gen ~theta:zipf ());
    ("smallbank", fun ~zipf:_ -> Workload.Smallbank.gen ());
    ( "smallbank-priority",
      fun ~zipf:_ -> Workload.Smallbank.gen ~prioritize_send_payment:true () );
  ]

(* --- metrics JSON ------------------------------------------------------ *)

(* Largest |segment sum - end-to-end| over the run, in µs. The attribution
   arithmetic is exact by construction, so anything non-zero is a bug; the
   value is serialized so CI can gate on it. *)
let max_sum_mismatch breakdowns =
  List.fold_left
    (fun m b ->
      max m
        (abs (Metrics.Attribution.total b.Metrics.Attribution.t_seg - b.Metrics.Attribution.t_e2e_us)))
    0 breakdowns

let metrics_json metered =
  let open Trace in
  let floats kvs = Obj (List.map (fun (k, v) -> (k, Float v)) kvs) in
  let ints kvs = Obj (List.map (fun (k, v) -> (k, Int v)) kvs) in
  let class_of high = String (if high then "high" else "low") in
  let run (sys_name, seed, m) =
    let reg = m.Harness.Experiment.m_registry in
    let breakdowns = m.Harness.Experiment.m_breakdowns in
    let w = Metrics.Attribution.wasted_work breakdowns in
    let bl = m.Harness.Experiment.m_blame in
    Obj
      [
        ("system", String sys_name);
        ("seed", Int seed);
        ("interval_us", Int (Metrics.Registry.interval reg));
        (* Per-window time series: one object per sampling window, samples
           keyed by instrument name. *)
        ( "windows",
          List
            (List.map
               (fun w ->
                 Obj
                   [
                     ("start_us", Int w.Metrics.Registry.w_start);
                     ("end_us", Int w.Metrics.Registry.w_end);
                     ("samples", floats w.Metrics.Registry.samples);
                   ])
               (Metrics.Registry.windows reg)) );
        ( "histograms",
          List
            (List.map
               (fun (name, h) ->
                 let n = Metrics.Registry.hist_count h in
                 let pct p =
                   if n = 0 then Null else Float (Metrics.Registry.hist_percentile h ~p)
                 in
                 Obj
                   [
                     ("name", String name);
                     ("count", Int n);
                     ("p50_ms", pct 0.50);
                     ("p95_ms", pct 0.95);
                     ("p99_ms", pct 0.99);
                   ])
               (Metrics.Registry.histograms reg)) );
        ( "attribution",
          Obj
            (List.map
               (fun (label, a) ->
                 ( label,
                   Obj
                     [
                       ("n", Int a.Metrics.Attribution.n);
                       ("e2e_mean_ms", Float a.Metrics.Attribution.e2e_mean_ms);
                       ("e2e_p95_ms", Float a.Metrics.Attribution.e2e_p95_ms);
                       ("e2e_p99_ms", Float a.Metrics.Attribution.e2e_p99_ms);
                       ("residual_fraction", Float (Metrics.Attribution.residual_fraction a));
                       ("mean_us", floats a.Metrics.Attribution.mean_us);
                       ("tail99_us", floats a.Metrics.Attribution.tail99_us);
                     ] ))
               (Metrics.Attribution.by_class breakdowns)) );
        ( "attribution_check",
          ints
            [
              ("txns", List.length breakdowns);
              ("max_sum_mismatch_us", max_sum_mismatch breakdowns);
            ] );
        (* Wasted-work view: aborted-attempt time split into the share covered
           by partial-abort prefix reuse and the share truly thrown away
           (reused_us + discarded_us = backoff_us exactly). *)
        ( "wasted",
          ints
            [
              ("txns", w.Metrics.Attribution.wk_txns);
              ("exec_us", w.Metrics.Attribution.wk_exec_us);
              ("backoff_us", w.Metrics.Attribution.wk_backoff_us);
              ("reused_us", w.Metrics.Attribution.wk_reused_us);
              ("discarded_us", w.Metrics.Attribution.wk_discarded_us);
            ] );
        (* Causal blame profile: who-blocked-whom over the same breakdowns.
           [blame_check.max_sum_mismatch_us] gates the exact-sum invariant —
           per txn, lock/queue blame charges sum to lock_wait + queue_wait. *)
        ( "blame",
          Obj
            [
              ( "matrix_us",
                Obj
                  (List.mapi
                     (fun row label ->
                       let cell col = bl.Metrics.Blame.b_matrix.(row).(col) in
                       (label, ints [ ("high", cell 0); ("low", cell 1); ("none", cell 2) ]))
                     [ "high"; "low" ]) );
              ("wait_us", Int bl.Metrics.Blame.b_wait_us);
              ("inversion_us", Int bl.Metrics.Blame.b_inversion_us);
              ( "hot_keys",
                List
                  (List.map
                     (fun (k, us) -> ints [ ("key", k); ("blocked_us", us) ])
                     bl.Metrics.Blame.b_hot_keys) );
              ( "top_blockers",
                List
                  (List.map
                     (fun (b, h, us) ->
                       Obj [ ("txn", Int b); ("class", class_of h); ("blocked_us", Int us) ])
                     bl.Metrics.Blame.b_blockers) );
              ( "exemplars",
                List
                  (List.map
                     (fun ex ->
                       Obj
                         [
                           ("label", String ex.Metrics.Blame.ex_label);
                           ("class", class_of ex.Metrics.Blame.ex_high);
                           ("e2e_us", Int ex.Metrics.Blame.ex_e2e_us);
                           ("wait_us", Int ex.Metrics.Blame.ex_wait_us);
                           ( "timeline",
                             List
                               (List.map
                                  (fun l -> String l)
                                  (ex.Metrics.Blame.ex_charges @ ex.Metrics.Blame.ex_timeline))
                           );
                         ])
                     bl.Metrics.Blame.b_exemplars) );
              ( "blame_check",
                ints
                  [
                    ("txns", bl.Metrics.Blame.b_n);
                    ("max_sum_mismatch_us", Metrics.Blame.max_mismatch breakdowns);
                  ] );
            ] );
      ]
  in
  (* schema_version: bumped whenever the shape of this document changes.
     1 = windows/histograms/attribution, 2 = blame profiling (the
     "blame" section per run, plus this very field), 3 = partial aborts (the
     "wasted" section: exec/backoff split into reused and discarded µs).
     Consumers should reject versions they do not know. *)
  Obj [ ("schema_version", Int 3); ("runs", List (List.map run metered)) ]

(* Prefix every line of a rendered table with "# " so the CSV block stays
   machine-readable. *)
let print_commented text =
  String.split_on_char '\n' text
  |> List.iter (fun line -> if line <> "" then Printf.printf "# %s\n" line)

let run_one ~systems ~workload ~rate ~zipf ~duration ~seeds ~high_fraction ~topo ~variance
    ~loss ~partitions ~clients_per_dc ~drain ~batching ~partial_abort ~histograms ~trace_file
    ~metrics_file ~trace_summary ~faults ~check =
  let gen = (List.assoc workload workload_names) ~zipf in
  let topo = List.assoc topo topo_names in
  let net_config =
    {
      Netsim.Network.default_config with
      Netsim.Network.cv_override = (if variance > 0. then Some variance else None);
      Netsim.Network.loss;
    }
  in
  let driver =
    {
      Workload.Driver.default_config with
      Workload.Driver.rate_tps = rate;
      duration = Simcore.Sim_time.seconds duration;
      warmup = Simcore.Sim_time.seconds (duration /. 4.);
      cooldown = Simcore.Sim_time.seconds (duration /. 4.);
      high_fraction;
      partial_abort;
      drain =
        (match drain with
        | Some s -> Simcore.Sim_time.seconds s
        | None -> Workload.Driver.default_config.Workload.Driver.drain);
    }
  in
  let setup =
    {
      Harness.Experiment.topo;
      Harness.Experiment.n_partitions = partitions;
      Harness.Experiment.clients_per_dc = clients_per_dc;
      Harness.Experiment.net_config;
      Harness.Experiment.driver;
      Harness.Experiment.batching =
        (if batching then Some Rpc.Batcher.default_config else None);
    }
  in
  (* Open the output files before any simulation, so a bad path fails fast
     instead of after the whole grid has run. *)
  let open_output what file =
    try (file, open_out file)
    with Sys_error e ->
      Printf.eprintf "natto_sim: cannot write %s file: %s\n%!" what e;
      exit 1
  in
  let trace_out = Option.map (open_output "trace") trace_file in
  let metrics_out = Option.map (open_output "metrics") metrics_file in
  Printf.printf
    "system,workload,rate_tps,zipf,p95_high_ms,ci,p95_low_ms,ci,goodput_high,goodput_low,failed,aborts\n%!";
  (* Every (system, seed) pair is an independent simulation, run once with
     every observer asked for (the first cell also carries the --trace sink):
     farm the whole grid out to the Domain pool, then walk it back in the
     sequential order for printing, so --jobs N output is byte-for-byte that
     of --jobs 1. Observation never changes results, so the CSV is that of a
     bare run. *)
  let cells =
    List.concat_map
      (fun name ->
        let spec = List.assoc name system_names in
        List.map (fun seed -> (name, spec, seed)) seeds)
      systems
  in
  let outcomes =
    Harness.Pool.map_ordered_auto
      (fun (i, (_name, spec, seed)) ->
        Harness.Experiment.run_outcome ?faults ~check ~metrics:(metrics_out <> None)
          ~trace:(i = 0 && trace_out <> None) ~counters:trace_summary setup spec ~gen ~seed)
      (List.mapi (fun i cell -> (i, cell)) cells)
  in
  let by_system =
    List.map
      (fun name ->
        ( name,
          List.filter_map
            (fun ((cell_name, _, _), o) -> if cell_name = name then Some o else None)
            (List.combine cells outcomes) ))
      systems
  in
  let violations = ref 0 in
  List.iter
    (fun (name, outs) ->
      let spec = List.assoc name system_names in
      let results =
        List.map
          (fun o ->
            (match o.Harness.Experiment.o_check with
            | None -> ()
            | Some (history, report) ->
                if Check.Checker.ok report then
                  Printf.printf "# check: %s seed %d ok (%d txns, %d edges)\n%!"
                    (Harness.Experiment.spec_name spec)
                    o.Harness.Experiment.o_seed report.Check.Checker.checked_txns
                    report.Check.Checker.edges
                else begin
                  violations := !violations + List.length report.Check.Checker.violations;
                  Printf.printf "# check: %s seed %d FAILED\n%s%!"
                    (Harness.Experiment.spec_name spec)
                    o.Harness.Experiment.o_seed
                    (Check.Checker.render history report)
                end);
            o.Harness.Experiment.o_result)
          outs
      in
      let s = Harness.Experiment.summarize results in
      Printf.printf "%s,%s,%.0f,%.2f,%.1f,%.1f,%.1f,%.1f,%.1f,%.1f,%d,%d\n%!"
        (Harness.Experiment.spec_name spec)
        workload rate zipf s.Harness.Experiment.p95_high_ms s.Harness.Experiment.p95_high_ci
        s.Harness.Experiment.p95_low_ms s.Harness.Experiment.p95_low_ci
        s.Harness.Experiment.goodput_high_tps s.Harness.Experiment.goodput_low_tps
        s.Harness.Experiment.failed s.Harness.Experiment.aborts;
      (* Uniform wasted-work comment for every system, '#'-prefixed so the
         CSV block stays byte-identical. speculation_aborts counts the
         deterministic families' in-epoch re-executions (zero elsewhere);
         partial_restarts/keys_reused count retries that resumed from a
         validated read prefix, keys_validated the claims servers confirmed
         current and omitted from replies (all zero with --partial-abort
         off). *)
      Printf.printf
        "# wasted: %s client_aborts=%d speculation_aborts=%d partial_restarts=%d \
         keys_reused=%d keys_validated=%d\n%!"
        (Harness.Experiment.spec_name spec)
        s.Harness.Experiment.aborts s.Harness.Experiment.spec_aborts
        s.Harness.Experiment.partial_restarts s.Harness.Experiment.keys_reused
        s.Harness.Experiment.keys_validated;
      match faults with
      | None -> ()
      | Some schedule ->
          (* Recovery evidence: commits submitted at or after the schedule's
             last event (typically the heal) prove the system came back. *)
          let heal = Simcore.Sim_time.to_seconds (Faults.last_event_time schedule) in
          let commits_after =
            List.fold_left
              (fun acc r ->
                acc
                + Array.fold_left
                    (fun a (born, _, _) -> if born >= heal then a + 1 else a)
                    0 r.Workload.Driver.commit_log)
              0 results
          in
          Printf.printf "# failover: %s commits_after_last_event=%d unfinished=%d\n%!"
            (Harness.Experiment.spec_name spec)
            commits_after s.Harness.Experiment.unfinished)
    by_system;
  if histograms then begin
    Printf.printf "\nLatency distributions (committed transactions, both priorities):\n";
    List.iter
      (fun (name, outs) ->
        let merged =
          List.fold_left
            (fun acc o ->
              let r = o.Harness.Experiment.o_result in
              Simstats.Histogram.merge acc
                (Simstats.Histogram.of_array
                   (Array.append r.Workload.Driver.high_latencies_ms
                      r.Workload.Driver.low_latencies_ms)))
            (Simstats.Histogram.create ()) outs
        in
        Printf.printf "%-15s %s\n%!"
          (Harness.Experiment.spec_name (List.assoc name system_names))
          (Simstats.Histogram.render merged))
      by_system
  end;
  (match (trace_out, outcomes) with
  | Some (file, oc), first :: _ ->
      (* The first cell (first system, first seed) ran with full tracing;
         its Chrome trace JSON goes to [file]. *)
      let trace = Option.get first.Harness.Experiment.o_trace in
      let spec_name = Harness.Experiment.spec_name first.Harness.Experiment.o_spec in
      let seed = first.Harness.Experiment.o_seed in
      Trace.write_chrome_trace trace
        ~extra:[ ("system", spec_name); ("seed", string_of_int seed) ]
        oc;
      close_out oc;
      Printf.printf "\n# trace: %s (%s, seed %d) — load at chrome://tracing\n" file spec_name
        seed;
      Printf.printf "# %d trace events; messages by kind:\n" (Trace.event_count trace);
      List.iter
        (fun (kind, n) -> Printf.printf "#   %-20s %10d\n" kind n)
        (Trace.kind_counts trace);
      Printf.printf "#   %-20s %10d (network total: %d)\n%!" "sum" (Trace.total_messages trace)
        first.Harness.Experiment.o_messages
  | _ -> ());
  (match metrics_out with
  | Some (file, oc) ->
      let metered =
        List.concat_map
          (fun (name, outs) ->
            List.filter_map
              (fun o ->
                Option.map
                  (fun m -> (name, o.Harness.Experiment.o_seed, m))
                  o.Harness.Experiment.o_metrics)
              outs)
          by_system
      in
      Trace.write_json oc (metrics_json metered);
      close_out oc;
      (* Attribution tables on stdout, '#'-prefixed so the CSV block above
         stays byte-for-byte that of a run without --metrics. *)
      List.iter
        (fun (sys_name, seed, m) ->
          let title = Printf.sprintf "%s, seed %d" sys_name seed in
          print_commented
            (Metrics.Attribution.render ~title
               (Metrics.Attribution.by_class m.Harness.Experiment.m_breakdowns));
          print_commented (Metrics.Blame.render ~title m.Harness.Experiment.m_blame);
          let mismatch = max_sum_mismatch m.Harness.Experiment.m_breakdowns in
          if mismatch > 0 then
            Printf.printf "# WARNING: %s: segment sums deviate from end-to-end by up to %d us\n"
              title mismatch;
          let blame_mismatch =
            Metrics.Blame.max_mismatch m.Harness.Experiment.m_breakdowns
          in
          if blame_mismatch > 0 then
            Printf.printf
              "# WARNING: %s: blame charges deviate from lock+queue segments by up to %d us\n"
              title blame_mismatch)
        metered;
      Printf.printf "# metrics: wrote %s (%d runs, %.0f ms windows)\n%!" file
        (List.length metered)
        (Simcore.Sim_time.to_ms
           (match metered with
           | (_, _, m) :: _ -> Metrics.Registry.interval m.Harness.Experiment.m_registry
           | [] -> 0))
  | None -> ());
  if trace_summary then begin
    (* Message totals are a fold over the grid's per-run counters. *)
    let traffic = Trace.create () in
    List.iter
      (fun o -> Option.iter (Trace.absorb ~into:traffic) o.Harness.Experiment.o_trace)
      outcomes;
    Trace.print_totals traffic
  end;
  !violations

open Cmdliner

let systems_arg =
  let all = List.map fst system_names in
  let doc =
    Printf.sprintf "Comma-separated systems to run (any of: %s, or 'all')."
      (String.concat ", " all)
  in
  Arg.(value & opt (list string) [ "natto-recsf"; "carousel-basic" ] & info [ "s"; "systems" ] ~doc)

let workload_arg =
  let doc =
    Printf.sprintf "Workload: %s." (String.concat ", " (List.map fst workload_names))
  in
  Arg.(value & opt string "ycsbt" & info [ "w"; "workload" ] ~doc)

let rate_arg = Arg.(value & opt float 100. & info [ "r"; "rate" ] ~doc:"Input rate, txn/s.")
let zipf_arg = Arg.(value & opt float 0.65 & info [ "z"; "zipf" ] ~doc:"Zipf coefficient.")

let duration_arg =
  Arg.(value & opt float 20. & info [ "d"; "duration" ] ~doc:"Simulated seconds.")

let seeds_arg =
  Arg.(value & opt (list int) [ 1; 2 ] & info [ "seeds" ] ~doc:"Repetition seeds.")

let high_arg =
  Arg.(value & opt float 0.1 & info [ "high-fraction" ] ~doc:"High-priority probability.")

let topo_arg =
  let doc =
    Printf.sprintf "Topology: %s." (String.concat "|" (List.map fst topo_names))
  in
  Arg.(value & opt string "azure5" & info [ "t"; "topology" ] ~doc)

let variance_arg =
  Arg.(value & opt float 0. & info [ "variance" ] ~doc:"Delay variance (stddev/mean).")

let loss_arg = Arg.(value & opt float 0. & info [ "loss" ] ~doc:"Packet loss probability.")
let partitions_arg = Arg.(value & opt int 5 & info [ "p"; "partitions" ] ~doc:"Partitions.")

let drain_arg =
  let doc =
    "Post-arrival drain window, simulated seconds (default 40). The engine runs to \
     duration + drain so in-flight transactions can finish; at large client counts the \
     measurement-plane traffic dominates this tail, so scale smokes shrink it."
  in
  Arg.(value & opt (some float) None & info [ "drain" ] ~doc)

let clients_arg =
  let doc =
    "Open-loop clients per datacenter. Each client gets its own node (and, for Natto, its \
     own delay cache); the driver round-robins transactions across all of them."
  in
  Arg.(value & opt int 2 & info [ "clients-per-dc" ] ~doc)

let batching_arg =
  let doc =
    "Coalesce messages sharing a DC link into batch envelopes and switch Raft \
     replication to group commit. Adaptive: sends immediately on an idle path, grows \
     batches under pressure; high-priority transactions cut the batch boundary. Off by \
     default — without this flag the commit path is byte-for-byte that of earlier \
     versions."
  in
  Arg.(value & flag & info [ "b"; "batching" ] ~doc)

let partial_abort_arg =
  let doc =
    "Resume retries from the first invalidated read: abort replies carry the first \
     conflicting key, the client keeps its validated read prefix, and the retry's \
     prepares claim (key, version) pairs the servers revalidate — a matching claim is \
     served without shipping the value, a stale one is served fresh. Histories are \
     unchanged (every read is still recorded against the authoritative store), so \
     checked runs stay clean. Off by default — without this flag output is \
     byte-for-byte that of earlier versions."
  in
  Arg.(value & flag & info [ "partial-abort" ] ~doc)

let histograms_arg =
  Arg.(value & flag & info [ "histograms" ] ~doc:"Also print latency distribution sketches.")

let trace_arg =
  let doc =
    "Record the first system/seed's run with full tracing and write Chrome trace-viewer \
     JSON to $(docv) (open at chrome://tracing or ui.perfetto.dev)."
  in
  Arg.(value & opt (some string) None & info [ "trace" ] ~doc ~docv:"FILE")

let metrics_arg =
  let doc =
    "Run every (system, seed) pair under the metrics registry and the latency \
     attribution engine, writing JSON to $(docv): per-window time series for the CPU, \
     network, lock and Raft instruments, latency histograms, and a per-priority \
     attribution table whose segments sum exactly to each transaction's end-to-end \
     latency. Instrumentation is pure observation — the CSV on stdout is byte-for-byte \
     that of a run without this flag."
  in
  Arg.(value & opt (some string) None & info [ "metrics" ] ~doc ~docv:"FILE")

let trace_summary_arg =
  let doc =
    "Count every message per kind and per DC link (counters-only tracing; results are \
     unchanged) and print the totals after the runs."
  in
  Arg.(value & flag & info [ "trace-summary" ] ~doc)

let faults_arg =
  let doc =
    "Fault schedule: comma-separated ACTION\\@TIME events, e.g. \
     'crash-leader:0\\@2s,restart\\@6s'. Actions: crash:NODE, crash-leader:P|rand, \
     restart:NODE, restart (all crashed), cut:A-B, heal:A-B, heal (all cut). Times are \
     offsets from simulation start and accept 's'/'ms' suffixes."
  in
  Arg.(value & opt (some string) None & info [ "faults" ] ~doc ~docv:"SPEC")

let jobs_arg =
  let doc =
    "Run up to $(docv) independent simulations in parallel on separate domains (default: \
     min(number of cores, runs)). Each (system, seed) cell — and each figure cell under --figure — runs \
     fully self-contained, and results are merged and printed in the sequential order, \
     so output is byte-for-byte identical to --jobs 1."
  in
  Arg.(value & opt (some int) None & info [ "j"; "jobs" ] ~doc ~docv:"N")

let check_arg =
  let doc =
    "Verify each run against the strict-serializability history checker (lib/check). \
     Prints one verdict line per (system, seed); on a violation, prints the dependency \
     cycle counterexample and exits non-zero. Recording is pure observation, so checked \
     runs report byte-for-byte the same results as unchecked ones."
  in
  Arg.(value & flag & info [ "check" ] ~doc)

let figure_arg =
  let doc =
    Printf.sprintf "Regenerate a figure instead (%s)."
      (String.concat ", " Harness.Figures.names)
  in
  Arg.(value & opt (some string) None & info [ "figure" ] ~doc)

let main systems workload rate zipf duration seeds high_fraction topo variance loss partitions
    clients_per_dc drain batching partial_abort histograms trace_file metrics_file trace_summary
    faults_spec jobs check figure =
  let positive x = Float.is_finite x && x > 0. in
  let non_negative x = Float.is_finite x && x >= 0. in
  match jobs with
  | Some n when n < 1 -> `Error (false, "--jobs must be >= 1")
  | _ when clients_per_dc < 1 -> `Error (false, "--clients-per-dc must be >= 1")
  | _ when not (positive rate) -> `Error (false, "--rate must be finite and > 0")
  | _ when not (positive duration) -> `Error (false, "--duration must be finite and > 0")
  | _ when not (Option.fold ~none:true ~some:non_negative drain) ->
      `Error (false, "--drain must be finite and >= 0")
  | _ when not (non_negative zipf) -> `Error (false, "--zipf must be finite and >= 0")
  | _ when not (non_negative variance) -> `Error (false, "--variance must be finite and >= 0")
  | _ when not (high_fraction >= 0. && high_fraction <= 1.) ->
      `Error (false, "--high-fraction must be in [0, 1]")
  | _ when not (loss >= 0. && loss < 1.) -> `Error (false, "--loss must be in [0, 1)")
  | _ when partitions < 1 -> `Error (false, "--partitions must be >= 1")
  | _ -> (
  Harness.Pool.set_jobs jobs;
  match figure with
  | Some name -> (
      match
        Harness.Figures.run ~count_messages:trace_summary (Harness.Figures.scale_of_env ())
          [ name ]
      with
      | Ok r ->
          Option.iter Trace.print_totals r.Harness.Figures.messages;
          `Ok ()
      | Error _ -> `Error (false, Printf.sprintf "unknown figure %S" name))
  | None ->
      let systems =
        if systems = [ "all" ] then List.map fst system_names else systems
      in
      let faults =
        match faults_spec with
        | None -> Ok None
        | Some spec -> Result.map Option.some (Faults.parse spec)
      in
      (match faults with
      | Error e -> `Error (false, Printf.sprintf "bad --faults spec: %s" e)
      | Ok faults ->
          (match List.find_opt (fun s -> not (List.mem_assoc s system_names)) systems with
          | Some bad -> `Error (false, Printf.sprintf "unknown system %S" bad)
          | None ->
              if not (List.mem_assoc workload workload_names) then
                `Error (false, Printf.sprintf "unknown workload %S" workload)
              else if not (List.mem_assoc topo topo_names) then
                `Error (false, Printf.sprintf "unknown topology %S" topo)
              else begin
                let violations =
                  run_one ~systems ~workload ~rate ~zipf ~duration ~seeds ~high_fraction
                    ~topo ~variance ~loss ~partitions ~clients_per_dc ~drain ~batching
                    ~partial_abort ~histograms ~trace_file ~metrics_file ~trace_summary ~faults
                    ~check
                in
                if violations = 0 then `Ok ()
                else
                  `Error
                    ( false,
                      Printf.sprintf "%d serializability violation%s detected" violations
                        (if violations = 1 then "" else "s") )
              end)))

let cmd =
  let doc = "Simulate Natto and its baselines on a geo-distributed deployment" in
  let info = Cmd.info "natto_sim" ~doc in
  Cmd.v info
    Term.(
      ret
        (const main $ systems_arg $ workload_arg $ rate_arg $ zipf_arg $ duration_arg
       $ seeds_arg $ high_arg $ topo_arg $ variance_arg $ loss_arg $ partitions_arg
       $ clients_arg $ drain_arg $ batching_arg $ partial_abort_arg $ histograms_arg
       $ trace_arg $ metrics_arg $ trace_summary_arg
       $ faults_arg $ jobs_arg $ check_arg $ figure_arg))

let () = exit (Cmd.eval cmd)
