(* Cross-system integration tests.

   Every protocol (Carousel Basic/Fast, TAPIR, 2PL+2PC variants, all Natto
   variants) is driven through the same scenarios:

   - Basic liveness: everything commits at low contention, nothing is left
     unfinished.
   - A serializability oracle: transactions are single-key read-modify-write
     increments on a tiny hot key space. Under any serializable execution
     the multiset of read values observed by the committed transactions on a
     key must be exactly {0, 1, ..., commits-1}: a lost update shows up as a
     duplicate, a dirty/stale read as a gap. *)

open Txnkit

let systems : (string * (Cluster.t -> System.t)) list =
  [
    ("carousel-basic", Carousel.Basic.make);
    ("carousel-fast", Carousel.Fast.make);
    ("tapir", Tapir.make);
    ("2pl", fun c -> Twopl.make c ~variant:Twopl.Plain);
    ("2pl-p", fun c -> Twopl.make c ~variant:Twopl.Preempt);
    ("2pl-pow", fun c -> Twopl.make c ~variant:Twopl.Preempt_on_wait);
    ("natto-ts", fun c -> Natto.Protocol.make c ~features:Natto.Features.ts);
    ("natto-lecsf", fun c -> Natto.Protocol.make c ~features:Natto.Features.lecsf);
    ("natto-pa", fun c -> Natto.Protocol.make c ~features:Natto.Features.pa);
    ("natto-cp", fun c -> Natto.Protocol.make c ~features:Natto.Features.cp);
    ("natto-recsf", fun c -> Natto.Protocol.make c ~features:Natto.Features.recsf);
    ("quecc", fun c -> Quecc.make c ~variant:Quecc.Fifo);
    ("quecc-prio", fun c -> Quecc.make c ~variant:Quecc.Prio);
  ]

let needs_raft name = name <> "tapir"
let needs_proxies name = String.length name >= 5 && String.sub name 0 5 = "natto"

let build name ~seed =
  Cluster.build ~with_raft:(needs_raft name) ~with_proxies:(needs_proxies name) ~seed ()

(* ------------------------------------------------------------------ *)
(* Liveness at low contention *)

let test_low_contention_liveness (name, make) () =
  let cluster = build name ~seed:7 in
  let system = make cluster in
  let gen = Workload.Ycsbt.gen ~n_keys:100_000 ~theta:0.0 () in
  let config =
    {
      Workload.Driver.default_config with
      Workload.Driver.rate_tps = 20.;
      duration = Simcore.Sim_time.seconds 10.;
      warmup = Simcore.Sim_time.seconds 1.;
      cooldown = Simcore.Sim_time.seconds 1.;
      drain = Simcore.Sim_time.seconds 30.;
    }
  in
  let r = Workload.Driver.run cluster system ~gen config in
  Alcotest.(check int) "no unfinished" 0 r.Workload.Driver.unfinished;
  Alcotest.(check int) "no failed" 0 r.Workload.Driver.failed;
  Alcotest.(check bool) "commits happened" true
    (r.Workload.Driver.committed_high + r.Workload.Driver.committed_low > 100);
  (* At near-zero contention tail latency stays within one protocol round
     budget: the slowest round-based system (2PL) needs ~3 WAN round trips
     (< 900ms); QueCC adds an epoch wait plus the planner round trip on
     top of its plan-log replication, so its budget is a little wider. *)
  let budget = if String.length name >= 5 && String.sub name 0 5 = "quecc" then 1100. else 900. in
  let p95 = Workload.Driver.p95_low r in
  if p95 > budget then Alcotest.failf "p95 too high at no contention: %.1fms" p95

(* ------------------------------------------------------------------ *)
(* Serializability oracle *)

let test_serializable (name, make) () =
  let cluster = build name ~seed:11 in
  let system = make cluster in
  let engine = cluster.Cluster.engine in
  let n_txns = 120 in
  let hot_keys = 8 in
  (* Per-key log of read values observed by committed transactions. *)
  let observed : (int, int list ref) Hashtbl.t = Hashtbl.create 8 in
  let commits = Hashtbl.create 8 in
  let failures = ref 0 in
  let unfinished = ref n_txns in
  let rng = Simcore.Rng.create ~seed:3 in
  for i = 1 to n_txns do
    let key = Simcore.Rng.int rng hot_keys in
    let client =
      cluster.Cluster.clients.(Simcore.Rng.int rng (Array.length cluster.Cluster.clients))
    in
    let priority = if Simcore.Rng.bernoulli rng ~p:0.3 then Txn.High else Txn.Low in
    (* Stagger arrivals so there is real-but-bounded contention. *)
    let at = Simcore.Sim_time.ms (float_of_int (1000 + (i * 110))) in
    ignore
      (Simcore.Engine.schedule_at engine at (fun () ->
           let last_read = ref (-1) in
           let compute reads =
             last_read := reads.(0);
             [| reads.(0) + 1 |]
           in
           let rec attempt tries id =
             let txn =
               Txn.make ~id ~client ~priority ~read_set:[ key ] ~write_set:[ key ] ~compute
                 ~born:at ~wound_ts:((i * 1000) + tries) ()
             in
             system.System.submit txn ~on_done:(fun ~committed ->
                 if committed then begin
                   decr unfinished;
                   let log =
                     match Hashtbl.find_opt observed key with
                     | Some l -> l
                     | None ->
                         let l = ref [] in
                         Hashtbl.replace observed key l;
                         l
                   in
                   log := !last_read :: !log;
                   Hashtbl.replace commits key
                     (1 + Option.value ~default:0 (Hashtbl.find_opt commits key))
                 end
                 else if tries >= 200 then begin
                   decr unfinished;
                   incr failures
                 end
                 else attempt (tries + 1) (id + 100_000))
           in
           attempt 0 (1_000_000 + i)))
  done;
  Simcore.Engine.run_until engine (Simcore.Sim_time.seconds 200.);
  Alcotest.(check int) "all resolved" 0 !unfinished;
  (* Wound-wait timestamps here are per-attempt, so a transaction can in
     principle starve; allow a handful of failures but require most to
     commit. *)
  if !failures > n_txns / 4 then Alcotest.failf "too many failures: %d" !failures;
  Hashtbl.iter
    (fun key log ->
      let n = Option.value ~default:0 (Hashtbl.find_opt commits key) in
      let sorted = List.sort compare !log in
      let expected = List.init n Fun.id in
      if sorted <> expected then
        Alcotest.failf "%s: key %d reads not serializable: [%s] (expected 0..%d)" name key
          (String.concat ";" (List.map string_of_int sorted))
          (n - 1))
    observed

(* ------------------------------------------------------------------ *)
(* Fault tolerance: a follower crash mid-run must be invisible (majority
   replication), and the restarted follower must catch up. *)

let test_follower_crash_tolerated (name, make) () =
  let cluster = build name ~seed:13 in
  let system = make cluster in
  let engine = cluster.Cluster.engine in
  (* Crash one follower of every partition 3 s in; restart at 8 s. *)
  ignore
    (Simcore.Engine.schedule_at engine (Simcore.Sim_time.seconds 3.) (fun () ->
         Array.iter
           (fun group ->
             let members = Raft.Group.members group in
             Raft.Group.crash group members.(1))
           cluster.Cluster.groups));
  ignore
    (Simcore.Engine.schedule_at engine (Simcore.Sim_time.seconds 8.) (fun () ->
         Array.iter
           (fun group ->
             let members = Raft.Group.members group in
             Raft.Group.restart group members.(1))
           cluster.Cluster.groups));
  let gen = Workload.Ycsbt.gen ~n_keys:100_000 ~theta:0.0 () in
  let config =
    {
      Workload.Driver.default_config with
      Workload.Driver.rate_tps = 30.;
      duration = Simcore.Sim_time.seconds 12.;
      warmup = Simcore.Sim_time.seconds 1.;
      cooldown = Simcore.Sim_time.seconds 1.;
      drain = Simcore.Sim_time.seconds 60.;
    }
  in
  let r = Workload.Driver.run cluster system ~gen config in
  Alcotest.(check int) "no unfinished" 0 r.Workload.Driver.unfinished;
  Alcotest.(check int) "no failed" 0 r.Workload.Driver.failed;
  (* The restarted followers catch up and logs converge. *)
  Array.iter
    (fun group -> Alcotest.(check bool) "group converged" true (Raft.Group.converged group))
    cluster.Cluster.groups

(* ------------------------------------------------------------------ *)
(* Retention: once a checked run has drained, the long-lived tables hold
   nothing for finished attempts — no undecided coordinator record, no
   lock-table key, and no Raft entry that every member already holds. *)

let test_retention ~with_proxies ?batching make () =
  let cluster = Cluster.build ~with_raft:true ~with_proxies ?batching ~seed:5 () in
  Check.Recorder.enable cluster.Cluster.recorder;
  let system = make cluster in
  let gen = Workload.Ycsbt.gen ~n_keys:10_000 ~theta:0.6 () in
  let config =
    {
      Workload.Driver.default_config with
      Workload.Driver.rate_tps = 60.;
      duration = Simcore.Sim_time.seconds 6.;
      warmup = Simcore.Sim_time.seconds 1.;
      cooldown = Simcore.Sim_time.seconds 1.;
      drain = Simcore.Sim_time.seconds 20.;
    }
  in
  let r = Workload.Driver.run cluster system ~gen config in
  Alcotest.(check int) "no unfinished" 0 r.Workload.Driver.unfinished;
  Alcotest.(check bool) "commits happened" true (Array.length r.Workload.Driver.commit_log > 200);
  Alcotest.(check bool) "aborts happened" true (r.Workload.Driver.total_aborts > 0);
  let history = Check.Recorder.history cluster.Cluster.recorder in
  Alcotest.(check bool) "strictly serializable" true
    (Check.Checker.ok (Check.Checker.check history));
  let retained = system.System.retained () in
  Alcotest.(check bool) "reports coordinator records" true
    (List.mem_assoc "coordinator records" retained);
  List.iter (fun (what, n) -> Alcotest.(check int) (what ^ " retained") 0 n) retained;
  Array.iter
    (fun group ->
      let nodes = Array.map (Raft.Group.node group) (Raft.Group.members group) in
      let watermark = Array.fold_left (fun w n -> min w (Raft.Node.log_length n)) max_int nodes in
      Alcotest.(check bool) "entries replicated" true (watermark > 0);
      Array.iter
        (fun n ->
          let below =
            List.filter (fun (e : Raft.Types.entry) -> e.index <= watermark) (Raft.Node.log_entries n)
          in
          Alcotest.(check int) "entries kept below the watermark" 0 (List.length below))
        nodes)
    cluster.Cluster.groups

(* Only Raft-replicated systems participate; TAPIR replicas have no crash
   facility in this model. *)
let raft_systems = List.filter (fun (name, _) -> name <> "tapir") systems

let cases f =
  List.map (fun (name, make) -> Alcotest.test_case name `Slow (f (name, make))) systems

let raft_cases f =
  List.map (fun (name, make) -> Alcotest.test_case name `Slow (f (name, make))) raft_systems

let () =
  Alcotest.run "protocols"
    [
      ("liveness", cases test_low_contention_liveness);
      ("serializability", cases test_serializable);
      ( "fault tolerance",
        raft_cases test_follower_crash_tolerated );
      ( "retention",
        [
          Alcotest.test_case "natto-recsf" `Quick
            (test_retention ~with_proxies:true (fun c ->
                 Natto.Protocol.make c ~features:Natto.Features.recsf));
          Alcotest.test_case "2pl batched" `Quick
            (test_retention ~with_proxies:false ~batching:Rpc.Batcher.default_config (fun c ->
                 Twopl.make c ~variant:Twopl.Plain));
        ] );
    ]
