(* Tests for the Raft library: replication timing, elections, safety. *)

open Simcore
open Netsim

type fixture = {
  engine : Engine.t;
  group : Raft.Group.t;
}

(* Three replicas: leader in DC0 (VA), followers in DC1 (WA) and DC2 (PR). *)
let make ?initial_leader () =
  let engine = Engine.create () in
  let rng = Rng.create ~seed:21 in
  let topo = Topology.azure5 in
  let node_dc = [| 0; 1; 2 |] in
  let cpus = Array.init 3 (fun _ -> Cpu.create engine) in
  let net = Network.create ~engine ~rng ~topo ~node_dc ~cpus () in
  let group = Raft.Group.create ~engine ~net ~rng ~members:[| 0; 1; 2 |] ?initial_leader () in
  { engine; group }

let test_forced_leader () =
  let f = make ~initial_leader:0 () in
  Alcotest.(check (option int)) "leader" (Some 0) (Raft.Group.leader_id f.group)

let test_replicate_commit_latency () =
  let f = make ~initial_leader:0 () in
  let committed_at = ref (-1) in
  ignore
    (Engine.schedule_at f.engine (Sim_time.ms 10.) (fun () ->
         Raft.Group.replicate f.group ~size:256
           ~on_committed:(fun () -> committed_at := Engine.now f.engine)
           ()));
  Engine.run_until f.engine (Sim_time.seconds 2.);
  (* Majority = leader (VA) + nearest follower (WA, RTT 67ms): commit after
     roughly one 67ms round trip, well before the PR round trip (80ms)
     plus slack. *)
  let ms = Sim_time.to_ms (!committed_at - Sim_time.ms 10.) in
  if ms < 50. || ms > 90. then Alcotest.failf "commit latency unexpected: %.1fms" ms

let test_replication_convergence () =
  let f = make ~initial_leader:0 () in
  let committed = ref 0 in
  for i = 1 to 20 do
    ignore
      (Engine.schedule_at f.engine (Sim_time.ms (float_of_int i)) (fun () ->
           Raft.Group.replicate f.group ~size:64 ~tag:i ~on_committed:(fun () -> incr committed) ()))
  done;
  Engine.run_until f.engine (Sim_time.seconds 5.);
  Alcotest.(check int) "all committed" 20 !committed;
  Alcotest.(check bool) "logs converged" true (Raft.Group.converged f.group);
  Alcotest.(check int) "leader log" 20 (Raft.Node.log_length (Raft.Group.node f.group 0))

let test_cold_start_election () =
  let f = make () in
  Engine.run_until f.engine (Sim_time.seconds 20.);
  (match Raft.Group.leader_id f.group with
  | Some _ -> ()
  | None -> Alcotest.fail "no leader elected after cold start");
  (* Exactly one leader. *)
  let leaders =
    List.filter
      (fun id -> Raft.Node.role (Raft.Group.node f.group id) = Raft.Node.Leader)
      [ 0; 1; 2 ]
  in
  Alcotest.(check int) "single leader" 1 (List.length leaders)

let test_leader_crash_reelection () =
  let f = make ~initial_leader:0 () in
  ignore (Engine.schedule_at f.engine (Sim_time.seconds 1.) (fun () -> Raft.Group.crash f.group 0));
  Engine.run_until f.engine (Sim_time.seconds 30.);
  (match Raft.Group.leader_id f.group with
  | Some id when id <> 0 -> ()
  | Some _ -> Alcotest.fail "crashed node still leader"
  | None -> Alcotest.fail "no new leader after crash")

let test_crashed_follower_catches_up () =
  let f = make ~initial_leader:0 () in
  ignore (Engine.schedule_at f.engine (Sim_time.ms 5.) (fun () -> Raft.Group.crash f.group 2));
  let committed = ref 0 in
  for i = 1 to 10 do
    ignore
      (Engine.schedule_at f.engine (Sim_time.ms (10. +. float_of_int i)) (fun () ->
           Raft.Group.replicate f.group ~size:64 ~tag:i ~on_committed:(fun () -> incr committed) ()))
  done;
  ignore (Engine.schedule_at f.engine (Sim_time.seconds 2.) (fun () -> Raft.Group.restart f.group 2));
  Engine.run_until f.engine (Sim_time.seconds 30.);
  Alcotest.(check int) "commits despite crash" 10 !committed;
  Alcotest.(check int) "restarted follower caught up" 10
    (Raft.Node.log_length (Raft.Group.node f.group 2));
  Alcotest.(check bool) "converged" true (Raft.Group.converged f.group)

(* Compaction keeps every entry some member lacks: a follower down for
   hundreds of entries comes back to an identical log by plain appends. *)
let test_long_crash_catches_up () =
  let f = make ~initial_leader:0 () in
  let n = 600 and before = 100 in
  (* [before] entries reach every member, then follower 2 crashes for the
     rest. *)
  for i = 1 to n do
    let at = if i <= before then 10. +. float_of_int i else 1000. +. float_of_int i in
    ignore
      (Engine.schedule_at f.engine (Sim_time.ms at) (fun () ->
           Raft.Group.replicate f.group ~size:64 ~tag:i ~on_committed:(fun () -> ()) ()))
  done;
  ignore (Engine.schedule_at f.engine (Sim_time.ms 900.) (fun () -> Raft.Group.crash f.group 2));
  let leader = Raft.Group.node f.group 0 and lagging = Raft.Group.node f.group 2 in
  ignore
    (Engine.schedule_at f.engine (Sim_time.seconds 3.) (fun () ->
         (* The leader dropped what all three hold and keeps everything the
            crashed follower lacks. *)
         Alcotest.(check int) "leader log while follower down" n (Raft.Node.log_length leader);
         Alcotest.(check int) "compacted to the crashed follower's log" before
           (Raft.Node.log_base leader);
         Alcotest.(check int) "retained while follower down" (n - before)
           (List.length (Raft.Node.log_entries leader));
         Alcotest.(check int) "crashed follower's log" before (Raft.Node.log_length lagging);
         Raft.Group.restart f.group 2));
  Engine.run_until f.engine (Sim_time.seconds 30.);
  Alcotest.(check int) "caught up" n (Raft.Node.log_length lagging);
  Alcotest.(check int) "committed" n (Raft.Node.commit_index lagging);
  Alcotest.(check int) "leader commit" n (Raft.Node.commit_index leader);
  Alcotest.(check bool) "converged" true (Raft.Group.converged f.group)

(* Group commit caps each append and resends from failure hints, so after a
   follower restarts, a success reply for a lower range can arrive after one
   for a higher range and move the follower's next index back. The leader
   holds its watermark below every pending append, so these random
   crash/restart schedules (seeds where a watermark from match indices
   alone dropped entries a resend then needed) never touch a dropped
   entry. *)
let test_stale_replies_under_group_commit () =
  List.iter
    (fun seed ->
      let engine = Engine.create () in
      let rng = Rng.create ~seed in
      let cpus = Array.init 3 (fun _ -> Cpu.create engine) in
      let net =
        Network.create ~engine ~rng ~topo:Topology.azure5 ~node_dc:[| 0; 1; 2 |] ~cpus ()
      in
      let group =
        Raft.Group.create ~engine ~net ~rng ~members:[| 0; 1; 2 |] ~group_commit:true
          ~initial_leader:0 ()
      in
      let faults = Rng.create ~seed:(seed + 1000) in
      let n = 300 in
      for i = 1 to n do
        let at = Sim_time.ms (float_of_int ((i * 10) + Rng.int faults 5)) in
        ignore
          (Engine.schedule_at engine at (fun () ->
               Raft.Group.replicate group ~size:32 ~tag:i ~on_committed:(fun () -> ()) ()))
      done;
      for _ = 1 to 8 do
        let at = Sim_time.ms (float_of_int (Rng.int faults 3000)) in
        let node = Rng.int faults 3 in
        let back = Sim_time.add at (Sim_time.ms (float_of_int (200 + Rng.int faults 2000))) in
        ignore (Engine.schedule_at engine at (fun () -> Raft.Group.crash group node));
        ignore (Engine.schedule_at engine back (fun () -> Raft.Group.restart group node))
      done;
      ignore
        (Engine.schedule_at engine (Sim_time.seconds 8.) (fun () ->
             List.iter (Raft.Group.restart group) [ 0; 1; 2 ]));
      Engine.run_until engine (Sim_time.seconds 60.);
      (* Entries a leader took just before crashing may be lost, as in any
         Raft deployment; every member must agree on the rest. *)
      Alcotest.(check bool) "converged" true (Raft.Group.converged group))
    [ 8; 34; 249 ]

(* Once every member holds every entry and a heartbeat has carried the
   watermark, no member keeps any entry at all. *)
let test_quiescent_keeps_nothing () =
  let f = make ~initial_leader:0 () in
  for i = 1 to 20 do
    ignore
      (Engine.schedule_at f.engine (Sim_time.ms (float_of_int i)) (fun () ->
           Raft.Group.replicate f.group ~size:64 ~tag:i ~on_committed:(fun () -> ()) ()))
  done;
  Engine.run_until f.engine (Sim_time.seconds 5.);
  List.iter
    (fun id ->
      let n = Raft.Group.node f.group id in
      Alcotest.(check int) "log length" 20 (Raft.Node.log_length n);
      Alcotest.(check int) "watermark" 20 (Raft.Node.log_base n);
      Alcotest.(check int) "retained entries" 0 (List.length (Raft.Node.log_entries n)))
    [ 0; 1; 2 ];
  Alcotest.(check bool) "converged" true (Raft.Group.converged f.group)

let test_old_leader_steps_down () =
  let f = make ~initial_leader:0 () in
  (* Crash leader; let a new leader emerge; restart the old one. It must
     step down to follower on contact with the higher term. *)
  ignore (Engine.schedule_at f.engine (Sim_time.seconds 1.) (fun () -> Raft.Group.crash f.group 0));
  ignore (Engine.schedule_at f.engine (Sim_time.seconds 15.) (fun () -> Raft.Group.restart f.group 0));
  Engine.run_until f.engine (Sim_time.seconds 40.);
  let node0 = Raft.Group.node f.group 0 in
  Alcotest.(check bool) "old leader not leader" true (Raft.Node.role node0 <> Raft.Node.Leader);
  let leaders =
    List.filter
      (fun id ->
        let n = Raft.Group.node f.group id in
        Raft.Node.role n = Raft.Node.Leader && not (Raft.Node.is_stopped n))
      [ 0; 1; 2 ]
  in
  Alcotest.(check int) "one leader" 1 (List.length leaders)

(* A leader commits only entries of its own term, so a new leader appends a
   no-op when it inherits uncommitted entries: what its predecessor
   replicated to a majority but never committed then commits with no
   further client entry. *)
let test_new_leader_commits_predecessor () =
  let f = make ~initial_leader:0 () in
  let n = 5 in
  let node = Raft.Group.node f.group in
  for i = 1 to n do
    ignore
      (Engine.schedule_at f.engine (Sim_time.ms 10.) (fun () ->
           Raft.Group.replicate f.group ~size:64 ~tag:i ~on_committed:(fun () -> ()) ()))
  done;
  ignore
    (Engine.schedule_at f.engine (Sim_time.ms 60.) (fun () ->
         (* Both followers hold the entries; no ack has reached the leader. *)
         Alcotest.(check int) "leader commit at the crash" 0 (Raft.Node.commit_index (node 0));
         List.iter
           (fun id -> Alcotest.(check int) "follower log at the crash" n (Raft.Node.log_length (node id)))
           [ 1; 2 ];
         Raft.Group.crash f.group 0));
  Engine.run_until f.engine (Sim_time.seconds 20.);
  (match Raft.Group.leader_id f.group with
  | Some id when id <> 0 -> ()
  | _ -> Alcotest.fail "no new leader after crash");
  List.iter
    (fun id ->
      let nd = node id in
      Alcotest.(check bool) "holds the entries" true (Raft.Node.log_length nd >= n);
      Alcotest.(check int) "committed to the last index" (Raft.Node.log_length nd)
        (Raft.Node.commit_index nd))
    [ 1; 2 ]

let test_commit_requires_majority () =
  let f = make ~initial_leader:0 () in
  (* Crash both followers: nothing can commit. *)
  ignore
    (Engine.schedule_at f.engine (Sim_time.ms 1.) (fun () ->
         Raft.Group.crash f.group 1;
         Raft.Group.crash f.group 2));
  let committed = ref false in
  ignore
    (Engine.schedule_at f.engine (Sim_time.ms 10.) (fun () ->
         Raft.Group.replicate f.group ~size:64 ~on_committed:(fun () -> committed := true) ()));
  Engine.run_until f.engine (Sim_time.seconds 3.);
  Alcotest.(check bool) "no commit without majority" false !committed;
  (* Restart one follower: majority restored, entry commits. *)
  ignore (Engine.schedule_at f.engine (Sim_time.seconds 3.) (fun () -> Raft.Group.restart f.group 1));
  Engine.run_until f.engine (Sim_time.seconds 10.);
  Alcotest.(check bool) "commit after majority restored" true !committed

let test_replicate_on_follower_rejected () =
  let f = make ~initial_leader:0 () in
  let node1 = Raft.Group.node f.group 1 in
  Alcotest.check_raises "not leader"
    (Invalid_argument "Raft.Node.replicate: not the leader") (fun () ->
      ignore (Raft.Node.replicate node1 ~size:1 ~tag:0 ~on_committed:(fun () -> ())))

let test_log_matching_safety () =
  (* Random crashes/restarts of followers while the leader replicates; at
     quiescence all live logs must agree (Log Matching / State Machine
     Safety as observable in this model). *)
  let f = make ~initial_leader:0 () in
  let rng = Rng.create ~seed:77 in
  let committed = ref [] in
  for i = 1 to 50 do
    ignore
      (Engine.schedule_at f.engine (Sim_time.ms (float_of_int (i * 20))) (fun () ->
           Raft.Group.replicate f.group ~size:32 ~tag:i
             ~on_committed:(fun () -> committed := i :: !committed)
             ()))
  done;
  List.iter
    (fun (at, action) ->
      ignore (Engine.schedule_at f.engine at (fun () -> action ())))
    [
      (Sim_time.ms 100., fun () -> Raft.Group.crash f.group (1 + Rng.int rng 2));
      (Sim_time.ms 400., fun () -> Raft.Group.restart f.group 1);
      (Sim_time.ms 401., fun () -> Raft.Group.restart f.group 2);
      (Sim_time.ms 600., fun () -> Raft.Group.crash f.group 2);
      (Sim_time.ms 900., fun () -> Raft.Group.restart f.group 2);
    ];
  Engine.run_until f.engine (Sim_time.seconds 30.);
  Alcotest.(check bool) "logs converge after churn" true (Raft.Group.converged f.group);
  (* Every member holds all 50 entries (the compacted prefix included), and
     the leader committed them in submission order: commit callbacks fire
     in log-index order. *)
  List.iter
    (fun id ->
      let n = Raft.Group.node f.group id in
      Alcotest.(check int) "all entries present" 50 (Raft.Node.log_length n);
      Alcotest.(check int) "all entries committed" 50 (Raft.Node.commit_index n))
    [ 0; 1; 2 ];
  Alcotest.(check (list int)) "order preserved" (List.init 50 (fun i -> i + 1))
    (List.rev !committed)

let test_message_bytes () =
  let open Raft.Types in
  let e = { term = 1; index = 1; size = 100; tag = 0 } in
  let ae =
    Append_entries
      {
        term = 1;
        leader = 0;
        prev_index = 0;
        prev_term = 0;
        entries = [ e; e ];
        leader_commit = 0;
        watermark = 0;
        seq = 1;
      }
  in
  Alcotest.(check bool) "entries counted" true (message_bytes ae > 248);
  Alcotest.(check int) "vote size" 32 (message_bytes (Vote { term = 1; from = 0; granted = true }))

let () =
  Alcotest.run "raft"
    [
      ( "replication",
        [
          Alcotest.test_case "forced leader" `Quick test_forced_leader;
          Alcotest.test_case "commit latency = nearest majority RTT" `Quick
            test_replicate_commit_latency;
          Alcotest.test_case "convergence" `Quick test_replication_convergence;
          Alcotest.test_case "commit requires majority" `Quick test_commit_requires_majority;
          Alcotest.test_case "replicate on follower rejected" `Quick
            test_replicate_on_follower_rejected;
        ] );
      ( "elections",
        [
          Alcotest.test_case "cold start elects one leader" `Quick test_cold_start_election;
          Alcotest.test_case "leader crash triggers reelection" `Quick test_leader_crash_reelection;
          Alcotest.test_case "old leader steps down" `Quick test_old_leader_steps_down;
          Alcotest.test_case "new leader commits its predecessor's entries" `Quick
            test_new_leader_commits_predecessor;
        ] );
      ( "safety",
        [
          Alcotest.test_case "crashed follower catches up" `Quick test_crashed_follower_catches_up;
          Alcotest.test_case "log matching under churn" `Quick test_log_matching_safety;
          Alcotest.test_case "long crash catches up through compaction" `Quick
            test_long_crash_catches_up;
          Alcotest.test_case "quiescent group keeps no entry" `Quick
            test_quiescent_keeps_nothing;
          Alcotest.test_case "stale replies under group commit" `Quick
            test_stale_replies_under_group_commit;
        ] );
      ("wire", [ Alcotest.test_case "message sizes" `Quick test_message_bytes ]);
    ]
