let rec gcd a b =
  let a = abs a and b = abs b in
  if b = 0 then a else gcd b (a mod b)

(* One division each: the truncated quotient, or remainder, is stepped
   toward negative infinity when the remainder and the divisor differ in
   sign. [/] and [mod] raise [Division_by_zero] on [b = 0]. *)
let fdiv a b =
  let q = a / b in
  let r = a - (b * q) in
  if r <> 0 && (r < 0) <> (b < 0) then q - 1 else q

let cdiv a b = -fdiv (-a) b

let fmod a b =
  let r = a mod b in
  if r <> 0 && (r < 0) <> (b < 0) then r + b else r

let pow2 n = n > 0 && n land (n - 1) = 0
