(* Micro-benchmarks: Bechamel estimates for the core data structures, then
   the event queue's cancel-heavy peak-size report. Takes no arguments; the
   paper's figures are regenerated by [natto_sim --figure]. *)

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

let () =
  if Array.length Sys.argv > 1 then begin
    prerr_endline "bench: takes no arguments (figures: natto_sim --figure NAME)";
    exit 2
  end;
  run_micro ()
