import java.util.function.IntUnaryOperator;

// No class here is annotated thread-safe, so threadlint does not parse this
// file, and the lambda and the switch, which its parser rejects, stop no run.
public class Dispatch {
  private final IntUnaryOperator twice = x -> x * 2;

  public int apply(int op, int x) {
    switch (op) {
      case 0:
        return twice.applyAsInt(x);
      default:
        return x;
    }
  }
}
