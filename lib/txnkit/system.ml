type t = {
  name : string;
  submit : Txn.t -> on_done:(committed:bool -> unit) -> unit;
  deterministic : bool;
  spec_aborts : (unit -> int) option;
  retained : unit -> (string * int) list;
}

let nothing_retained () = []

let make ~name ~submit =
  { name; submit; deterministic = false; spec_aborts = None; retained = nothing_retained }

let make_deterministic ~name ~spec_aborts ~submit =
  { name; submit; deterministic = true; spec_aborts = Some spec_aborts; retained = nothing_retained }
