(* A chunked buffer. Element [i] lives at [spine.(i lsr bits).(i land
   mask)]. Full chunks hold [chunk] slots, which is [Max_young_wosize], so
   every chunk is allocated on the minor heap: a fresh element is stored
   into a young array, no store crosses from the major heap, and a dead
   vector is collected without promoting what it held. The first chunk
   grows by doubling up to [chunk]; every later one starts full-sized.
   Spine entries past the last allocated chunk are [[||]]. *)

let bits = 8
let chunk = 1 lsl bits
let mask = chunk - 1

type 'a t = { mutable spine : 'a array array; mutable len : int }

let create () = { spine = [||]; len = 0 }

let length v = v.len

(* Walks read the length once, as a loop over [0, len) would: the last
   chunk a length of [len] uses (-1 when empty), and the highest offset it
   uses in chunk [c]. *)
let last_chunk len = (len - 1) asr bits
let top len c = min mask (len - 1 - (c lsl bits))

(* make room for slot [v.len] *)
let grow v x =
  let c = v.len lsr bits in
  let n = Array.length v.spine in
  if c = n then begin
    (* an atom, not a young value, fills the new spine: a spine large
       enough for the major heap must not force a minor collection *)
    let spine = Array.make (max 4 (2 * n)) [||] in
    Array.blit v.spine 0 spine 0 n;
    v.spine <- spine
  end;
  let old = v.spine.(c) in
  let size =
    match Array.length old with
    | 0 -> if c = 0 then 16 else chunk
    | k -> 2 * k
  in
  let fresh = Array.make size x in
  Array.blit old 0 fresh 0 (Array.length old);
  v.spine.(c) <- fresh

let push v x =
  let i = v.len in
  let c = i lsr bits in
  if c >= Array.length v.spine || i land mask >= Array.length v.spine.(c) then
    grow v x;
  Array.unsafe_set (Array.unsafe_get v.spine c) (i land mask) x;
  v.len <- i + 1

let get v i =
  if i < 0 || i >= v.len then invalid_arg "Vec.get";
  Array.unsafe_get (Array.unsafe_get v.spine (i lsr bits)) (i land mask)

let clear v = v.len <- 0

let iter f v =
  let len = v.len in
  for c = 0 to last_chunk len do
    let a = v.spine.(c) in
    for o = 0 to top len c do
      f (Array.unsafe_get a o)
    done
  done

let fold f acc v =
  let acc = ref acc in
  let len = v.len in
  for c = 0 to last_chunk len do
    let a = v.spine.(c) in
    for o = 0 to top len c do
      acc := f !acc (Array.unsafe_get a o)
    done
  done;
  !acc

let to_list v =
  let l = ref [] in
  let len = v.len in
  for c = last_chunk len downto 0 do
    let a = v.spine.(c) in
    for o = top len c downto 0 do
      l := Array.unsafe_get a o :: !l
    done
  done;
  !l

let of_list xs =
  let v = create () in
  List.iter (push v) xs;
  v

let filter p v =
  let l = ref [] in
  let len = v.len in
  for c = 0 to last_chunk len do
    let a = v.spine.(c) in
    for o = 0 to top len c do
      let x = Array.unsafe_get a o in
      if p x then l := x :: !l
    done
  done;
  List.rev !l

let exists p v =
  let len = v.len in
  let last = last_chunk len in
  let rec scan c a o hi =
    if o <= hi then p (Array.unsafe_get a o) || scan c a (o + 1) hi
    else c < last && next (c + 1)
  and next c = scan c v.spine.(c) 0 (top len c) in
  last >= 0 && next 0

let count p v =
  let n = ref 0 in
  let len = v.len in
  for c = 0 to last_chunk len do
    let a = v.spine.(c) in
    for o = 0 to top len c do
      if p (Array.unsafe_get a o) then incr n
    done
  done;
  !n
