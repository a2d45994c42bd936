import javax.annotation.concurrent.ThreadSafe;

// each caller may pass a different index, so locks[i] guards nothing
@ThreadSafe
class ParamIndex {
  private final Object[] locks = new Object[2];
  private int count;

  public void inc(int i) {
    synchronized (locks[i]) {
      count = count + 1;
    }
  }
}
