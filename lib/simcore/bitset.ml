type t = { mutable bits : Bytes.t }

let create () = { bits = Bytes.empty }

let mem t i =
  i >= 0
  && i lsr 3 < Bytes.length t.bits
  && Char.code (Bytes.unsafe_get t.bits (i lsr 3)) land (1 lsl (i land 7)) <> 0

let add t i =
  if i < 0 then invalid_arg "Bitset.add: negative id";
  let byte = i lsr 3 in
  let len = Bytes.length t.bits in
  if byte >= len then begin
    let cap = ref (Stdlib.max 64 (2 * len)) in
    while !cap <= byte do
      cap := 2 * !cap
    done;
    let bits = Bytes.make !cap '\000' in
    Bytes.blit t.bits 0 bits 0 len;
    t.bits <- bits
  end;
  let old = Char.code (Bytes.unsafe_get t.bits byte) in
  Bytes.unsafe_set t.bits byte (Char.unsafe_chr (old lor (1 lsl (i land 7))))
