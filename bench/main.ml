(* Benchmark entry point.

   With no arguments: prints Table 1, regenerates every figure of the
   paper's evaluation (quick scale; set NATTO_BENCH_FULL=1 for the paper's
   60-second runs), then runs Bechamel micro-benchmarks of the core data
   structures. With arguments: any of the figure names (see
   Harness.Figures.names), "micro", or "all". *)

open Bechamel

let micro_tests () =
  let open Simcore in
  let queue_churn =
    Test.make ~name:"event_queue push+pop x100"
      (Staged.stage @@ fun () ->
       let q = Event_queue.create () in
       for i = 1 to 100 do
         ignore (Event_queue.push q ~time:(i * 7 mod 97) i)
       done;
       let rec drain () = match Event_queue.pop q with Some _ -> drain () | None -> () in
       drain ())
  in
  let queue_cancel_churn =
    (* Watchdog pattern: almost every timer is cancelled before firing. *)
    Test.make ~name:"event_queue push+cancel x100"
      (Staged.stage @@ fun () ->
       let q = Event_queue.create () in
       for i = 1 to 100 do
         let h = Event_queue.push q ~time:(1000 + i) i in
         if i mod 10 <> 0 then Event_queue.cancel h
       done;
       let rec drain () = match Event_queue.pop q with Some _ -> drain () | None -> () in
       drain ())
  in
  let zipf = Workload.Zipf.create ~n:1_000_000 ~theta:0.95 in
  let zipf_rng = Rng.create ~seed:1 in
  let zipf_sample =
    Test.make ~name:"zipf sample (n=1M, theta=0.95)"
      (Staged.stage @@ fun () -> ignore (Workload.Zipf.sample zipf zipf_rng))
  in
  let occ_cycle =
    Test.make ~name:"occ prepare+conflicts+release"
      (Staged.stage
      @@
      let occ = Store.Occ.create () in
      let reads = [| 1; 2; 3; 4; 5; 6 |] in
      fun () ->
        Store.Occ.prepare occ ~txn:1 ~reads ~writes:reads;
        ignore (Store.Occ.conflicts occ ~reads ~writes:reads);
        Store.Occ.release occ ~txn:1)
  in
  let tsq_cycle =
    Test.make ~name:"txn queue add+min+remove x32"
      (Staged.stage @@ fun () ->
       let q = Natto.Tsq.create () in
       for i = 1 to 32 do
         Natto.Tsq.add q ~ts:(i * 13 mod 37) ~id:i i
       done;
       let rec drain () =
         match Natto.Tsq.min q with
         | Some (ts, id, _) ->
             Natto.Tsq.remove q ~ts ~id;
             drain ()
         | None -> ()
       in
       drain ())
  in
  let latencies = Array.init 10_000 (fun i -> float_of_int (i * 7919 mod 10_000)) in
  let percentile =
    Test.make ~name:"p95 over 10k samples"
      (Staged.stage @@ fun () -> ignore (Simstats.Percentile.p95 latencies))
  in
  let rng = Rng.create ~seed:2 in
  let pareto =
    Test.make ~name:"pareto delay sample"
      (Staged.stage @@ fun () -> ignore (Rng.pareto rng ~mean:40.0 ~cv:0.3))
  in
  Test.make_grouped ~name:"core"
    [ queue_churn; queue_cancel_churn; zipf_sample; occ_cycle; tsq_cycle; percentile; pareto ]

(* Peak physical heap size under the watchdog pattern: a long-lived queue
   where nearly every pushed timer is cancelled well before its deadline.
   Without compaction the dead entries sit in the heap until pop reaches
   their (far-future) timestamps and the peak tracks the total number of
   pushes; with compaction it stays within ~2x the live count. *)
let cancel_heavy_report () =
  let open Simcore in
  let pushes = 100_000 in
  let q = Event_queue.create () in
  let peak = ref 0 in
  for i = 1 to pushes do
    (* Timer armed 1000 ticks out; 99% are cancelled immediately (the
       guarded operation completed), and we also pop the occasional due
       event so the queue behaves like a live engine's. *)
    let h = Event_queue.push q ~time:(i + 1000) i in
    if i mod 100 <> 0 then Event_queue.cancel h;
    if i mod 50 = 0 then ignore (Event_queue.pop q);
    if Event_queue.size q > !peak then peak := Event_queue.size q
  done;
  Printf.printf
    "event_queue cancel-heavy: %d pushes (99%% cancelled), peak heap %d entries, %d live \
     at end\n%!"
    pushes !peak (Event_queue.live_size q)

let run_micro () =
  Printf.printf "\n# Micro-benchmarks (Bechamel, OLS estimate per call)\n%!";
  let ols = Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |] in
  let instances = Toolkit.Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) () in
  let raw = Benchmark.all cfg instances (micro_tests ()) in
  let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
  let rows =
    Hashtbl.fold
      (fun name ols acc ->
        let ns = match Analyze.OLS.estimates ols with Some (e :: _) -> e | _ -> nan in
        (name, ns) :: acc)
      results []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
  in
  List.iter (fun (name, ns) -> Printf.printf "%-40s %12.1f ns/call\n%!" name ns) rows;
  cancel_heavy_report ()

(* --- machine-readable results ----------------------------------------- *)

let git_rev () =
  try
    let ic = Unix.open_process_in "git rev-parse HEAD 2>/dev/null" in
    let line = try input_line ic with End_of_file -> "" in
    ignore (Unix.close_process_in ic);
    if line = "" then "unknown" else line
  with _ -> "unknown"

(* Every data point the figure runners printed, as
   figure id -> series -> point list, with run metadata. The CSV on stdout
   stays the human-readable copy; this file is for plotting scripts and
   regression diffs. *)
let write_results ~scale ~wall_s ~jobs points file =
  let open Harness.Figures in
  let uniq xs =
    List.rev (List.fold_left (fun acc x -> if List.mem x acc then acc else x :: acc) [] xs)
  in
  (* busy / wall is the achieved parallel speedup: total time spent inside
     simulation jobs over the elapsed wall clock. At --jobs 1 it is ~1. *)
  let busy_s = Harness.Pool.busy_seconds () in
  let meta =
    Trace.Obj
      [
        ("scale", Trace.String (match scale with Quick -> "quick" | Full -> "full"));
        ("seeds", Trace.List (List.map (fun s -> Trace.Int s) (seeds scale)));
        ("git_rev", Trace.String (git_rev ()));
        ("wall_time_s", Trace.Float wall_s);
        ("jobs", Trace.Int jobs);
        ("busy_time_s", Trace.Float busy_s);
        ("speedup", Trace.Float (if wall_s > 0. then busy_s /. wall_s else 1.0));
      ]
  in
  let point p =
    Trace.Obj
      ((p.pt_x_label, Trace.String p.pt_x)
      :: List.map (fun (k, v) -> (k, Trace.Float v)) p.pt_fields)
  in
  let figure fig =
    let fpoints = List.filter (fun p -> p.pt_figure = fig) points in
    Trace.Obj
      (List.map
         (fun sys ->
           (sys, Trace.List (List.map point (List.filter (fun p -> p.pt_system = sys) fpoints))))
         (uniq (List.map (fun p -> p.pt_system) fpoints)))
  in
  let figures = uniq (List.map (fun p -> p.pt_figure) points) in
  let oc = open_out file in
  Trace.write_json oc
    (Trace.Obj
       [ ("meta", meta); ("figures", Trace.Obj (List.map (fun f -> (f, figure f)) figures)) ]);
  close_out oc;
  Printf.printf "\n# wrote %s (%d figures, %d points)\n%!" file (List.length figures)
    (List.length points)

let () =
  let args = match Array.to_list Sys.argv with _ :: rest -> rest | [] -> [] in
  let scale = Harness.Figures.scale_of_env () in
  (* --trace-summary appends per-kind / per-link message totals to the run;
     counters-only tracing, so figure numbers are unchanged. *)
  let count_messages = List.mem "--trace-summary" args in
  let args = List.filter (fun a -> a <> "--trace-summary") args in
  (* --jobs N / --jobs=N caps the Domain pool for figure cells; the default
     is min(cores, cells). Results are byte-for-byte identical at any
     setting. *)
  let jobs_raw, args =
    let rec scan acc = function
      | [] -> (None, List.rev acc)
      | "--jobs" :: n :: rest -> (Some n, List.rev_append acc rest)
      | arg :: rest when String.length arg > 7 && String.sub arg 0 7 = "--jobs=" ->
          (Some (String.sub arg 7 (String.length arg - 7)), List.rev_append acc rest)
      | arg :: rest -> scan (arg :: acc) rest
    in
    scan [] args
  in
  let jobs_setting =
    match jobs_raw with
    | None -> None
    | Some s -> (
        match int_of_string_opt s with
        | Some n when n >= 1 -> Some n
        | _ ->
            Printf.eprintf "bench: --jobs expects a positive integer, got %S\n" s;
            exit 1)
  in
  Harness.Pool.set_jobs jobs_setting;
  (* Figures run first, in the order given, then the micro-benchmarks. *)
  let figures, micro =
    match args with
    | [] | [ "all" ] -> (Harness.Figures.all, true)
    | names -> (List.filter (fun n -> n <> "micro") names, List.mem "micro" names)
  in
  let t0 = Unix.gettimeofday () in
  match Harness.Figures.run ~count_messages scale figures with
  | Error name ->
      Printf.eprintf "unknown target %S; available: %s micro all\n" name
        (String.concat " " Harness.Figures.names);
      exit 1
  | Ok results ->
      if micro then run_micro ();
      Option.iter Trace.print_totals results.Harness.Figures.messages;
      let wall_s = Unix.gettimeofday () -. t0 in
      let jobs =
        match jobs_setting with Some n -> n | None -> Harness.Pool.jobs_for ~cells:max_int
      in
      if results.Harness.Figures.points <> [] then
        write_results ~scale ~wall_s ~jobs results.Harness.Figures.points "BENCH_results.json";
      Printf.printf "\n# bench wall time: %.1fs (jobs=%d, busy %.1fs, speedup %.2fx)\n%!"
        wall_s jobs (Harness.Pool.busy_seconds ())
        (if wall_s > 0. then Harness.Pool.busy_seconds () /. wall_s else 1.0)
