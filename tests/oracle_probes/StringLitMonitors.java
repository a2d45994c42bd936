import javax.annotation.concurrent.ThreadSafe;

// "a b" and "ab" are two strings, so the blocks lock two different monitors
@ThreadSafe
class StringLitMonitors {
  private int n;

  public void inc() {
    synchronized ("a b") {
      n = n + 1;
    }
  }

  public int get() {
    synchronized ("ab") {
      return n;
    }
  }
}
