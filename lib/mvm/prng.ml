(* The splitmix64 state lives unboxed in 8 bytes: a mutable [int64]
   field would box a fresh value on every draw, and [next], inlined into
   [int], keeps the whole draw in registers, so drawing allocates
   nothing. *)
type t = Bytes.t

(* splitmix64 (Steele, Lea, Flood 2014): tiny state, good distribution,
   trivially reproducible across platforms. *)

let golden = 0x9E3779B97F4A7C15L

let create seed =
  let t = Bytes.create 8 in
  Bytes.set_int64_le t 0 (Int64.of_int seed);
  t

let copy = Bytes.copy

let[@inline] next t =
  let z = Int64.add (Bytes.get_int64_le t 0) golden in
  Bytes.set_int64_le t 0 z;
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let int t bound =
  if bound <= 0 then invalid_arg "Prng.int: bound must be positive";
  (* keep 62 bits so the native int is always non-negative *)
  let v = Int64.to_int (Int64.shift_right_logical (next t) 2) in
  (* a power-of-two bound keeps the low bits without a division: the
     same value as [v mod bound], since [v >= 0]. A scheduler picks among
     1, 2 or 4 candidates on most steps *)
  if bound land (bound - 1) = 0 then v land (bound - 1) else v mod bound

let bool t = Int64.logand (next t) 1L = 1L

let float t =
  let v = Int64.to_int (Int64.shift_right_logical (next t) 11) in
  float_of_int v /. float_of_int (1 lsl 53)

let pick t xs =
  match xs with
  | [] -> invalid_arg "Prng.pick: empty list"
  | _ -> List.nth xs (int t (List.length xs))

(* the stateless form: each coordinate steps a splitmix64 state that
   starts at the previous hash xor the coordinate; the top 53 bits of the
   result make the float. [next] keeps its own inline copy of the
   finaliser: it is on the scheduling hot path. *)
let[@inline] mix64 z =
  let open Int64 in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  logxor z (shift_right_logical z 31)

let[@inline] mix h x = mix64 (Int64.add (Int64.logxor h (Int64.of_int x)) golden)

let coin seed coords =
  let h = List.fold_left mix (Int64.of_int seed) coords in
  Int64.to_float (Int64.shift_right_logical h 11) /. 9007199254740992.

(* the five steps inline: the state stays unboxed and the 53 bits leave
   as an immediate int *)
let coin_bits5 seed a b c d e =
  let h = mix (mix (mix (mix (mix (Int64.of_int seed) a) b) c) d) e in
  Int64.to_int (Int64.shift_right_logical h 11)
