module Int = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal

  (* the multiply spreads low bits upward and the fold brings the high
     ones (a packed pair's tid) back into the bucket index *)
  let hash x =
    let h = x * 0x9E3779B97F4A7C1 in
    h lxor (h lsr 29)
end)

module Str = Hashtbl.Make (String)

let pair tid sid =
  if tid < 0 || sid < 0 || tid > 0x3FFF_FFFF || sid > 0x7FFF_FFFF then -1
  else (tid lsl 31) lor sid
