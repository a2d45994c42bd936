import javax.annotation.concurrent.ThreadSafe;

// the loop body, run once, writes the field with no lock
@ThreadSafe
class LoopWrite {
  private int total = 0;

  public synchronized int get() {
    return total;
  }

  public void addAll(int[] xs) {
    for (int x : xs) {
      total = total + x;
    }
  }
}
