open Simcore
open Netsim

type t = {
  engine : Engine.t;
  net : Network.t;
  clock : Clock.t;
  node : int;
  targets : int array;
  windows : (int, Window.t) Hashtbl.t;
  mutable running : bool;
}

(* §5.1: every target is probed every 10 ms; an estimate is the p95 over
   the last second of samples. *)
let interval = Sim_time.ms 10.
let window = Sim_time.seconds 1.

let probe t target =
  let sent_local = Clock.now t.clock t.engine ~node:t.node in
  (* Request travels to the target, which stamps its local clock; the reply
     carries the stamp back. The sample is (target clock at arrival) -
     (proxy clock at send): one-way delay plus relative skew. *)
  Rpc.send_isolated t.net ~src:t.node ~dst:target ~msg:(Rpc.Msg.probe ()) (fun () ->
      let stamp = Clock.now t.clock t.engine ~node:target in
      Rpc.send_isolated t.net ~src:target ~dst:t.node ~msg:(Rpc.Msg.probe_reply ()) (fun () ->
          if t.running then begin
            let sample = float_of_int (Sim_time.sub stamp sent_local) in
            let w = Hashtbl.find t.windows target in
            Window.add w ~now:(Engine.now t.engine) sample
          end))

let rec tick t =
  if t.running then begin
    Array.iter (fun target -> probe t target) t.targets;
    ignore (Engine.schedule_after t.engine interval (fun () -> tick t))
  end

let create ~engine ~net ~clock ~node ~targets =
  let t =
    {
      engine;
      net;
      clock;
      node;
      targets;
      windows = Hashtbl.create 16;
      running = true;
    }
  in
  Array.iter (fun target -> Hashtbl.replace t.windows target (Window.create ~span:window)) targets;
  tick t;
  t

let node t = t.node

let estimate_us t ~target =
  match Hashtbl.find_opt t.windows target with
  | None -> None
  | Some w -> Window.percentile w ~now:(Engine.now t.engine) ~p:0.95

let snapshot t =
  Array.to_list t.targets
  |> List.filter_map (fun target ->
         Option.map (fun e -> (target, e)) (estimate_us t ~target))

let sample_count t ~target =
  match Hashtbl.find_opt t.windows target with
  | None -> 0
  | Some w -> Window.count w ~now:(Engine.now t.engine)

let stop t = t.running <- false
