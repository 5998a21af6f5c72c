(* A direct-mapped cache: site [sid] uses slot [sid land mask]. A slot
   holds the name it last saw and that name's answer, and the answer
   depends on the name alone, so two sites sharing a slot can only cost
   misses, never a wrong answer. 256 slots give every shipped program's
   sites (up to 198) a slot of their own. *)
let size = 256
let mask = size - 1

type 'a t = { mutable names : string array; mutable answers : 'a array }

(* a fresh block no event can carry: an empty slot never hits *)
let unseen = Bytes.to_string (Bytes.make 1 '\000')

(* every memo's slots until its first miss; never written *)
let vacant = Array.make size unseen

let create () = { names = vacant; answers = [||] }

(* a memo's own arrays are born on its first miss, the answers filled
   with that answer: ['a] has no value to fill them with before that *)
let refill t slot name lookup =
  let a = lookup name in
  if t.names == vacant then begin
    t.names <- Array.make size unseen;
    t.answers <- Array.make size a
  end;
  Array.unsafe_set t.names slot name;
  Array.unsafe_set t.answers slot a;
  a

let find t sid name lookup =
  let slot = sid land mask in
  if Array.unsafe_get t.names slot == name then Array.unsafe_get t.answers slot
  else refill t slot name lookup
