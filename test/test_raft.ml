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
  for i = 1 to 50 do
    ignore
      (Engine.schedule_at f.engine (Sim_time.ms (float_of_int (i * 20))) (fun () ->
           Raft.Group.replicate f.group ~size:32 ~tag:i ~on_committed:(fun () -> ()) ()))
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
  let log = Raft.Node.log_entries (Raft.Group.node f.group 0) in
  Alcotest.(check int) "all entries present" 50 (List.length log);
  (* Entries appear in submission order. *)
  let tags = List.map (fun (e : Raft.Types.entry) -> e.tag) log in
  Alcotest.(check (list int)) "order preserved" (List.init 50 (fun i -> i + 1)) tags

let test_message_bytes () =
  let open Raft.Types in
  let e = { term = 1; index = 1; size = 100; tag = 0 } in
  let ae =
    Append_entries
      { term = 1; leader = 0; prev_index = 0; prev_term = 0; entries = [ e; e ]; leader_commit = 0 }
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
        ] );
      ( "safety",
        [
          Alcotest.test_case "crashed follower catches up" `Quick test_crashed_follower_catches_up;
          Alcotest.test_case "log matching under churn" `Quick test_log_matching_safety;
        ] );
      ("wire", [ Alcotest.test_case "message sizes" `Quick test_message_bytes ]);
    ]
